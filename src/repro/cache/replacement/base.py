"""Replacement-policy framework.

A :class:`ReplacementPolicy` is bound to one cache and receives hooks on
every hit, miss, fill, and eviction, plus a ``victim`` callback when a full
set needs a replacement decision.  Policies keep their own (hardware-modelled)
state; the idealized Table II metadata on :class:`repro.cache.block.CacheLine`
exists for the RL agent and for analysis, not for hardware policies.

Policies are registered by name in :data:`POLICY_REGISTRY` so the evaluation
harness and benchmarks can instantiate them from strings.

The contract:

* the owner of the policy calls ``bind`` exactly once, before any other
  hook (the cache itself never binds);
* the cache calls ``victim`` only on a *full* set, and every ``on_evict``
  is followed directly by the ``on_fill`` for the same set and way
  (engine invariants, tested in tests/test_reference_model.py);
* ``victim`` must return a way index in ``range(self.ways)``, or
  :data:`BYPASS` only when the owning cache enables bypass.
  :class:`~repro.cache.cache.Cache` checks this where it uses the answer,
  unless the sanitizer is off — see docs/validation.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

#: Sentinel returned by ``victim`` to bypass the cache instead of evicting.
BYPASS = -1


class ReplacementPolicy(ABC):
    """Base class for all replacement policies.

    Subclasses must set :attr:`name` and implement :meth:`victim`.  All other
    hooks default to no-ops.  ``bind`` is called exactly once, by whoever
    builds the cache, before any other hook.
    """

    #: Registry key; subclasses override.
    name = "base"
    #: Whether the policy reads the program counter (Table I column).
    uses_pc = False
    #: Whether the policy reads the idealized Table II metadata on
    #: CacheLine (ages/preuse/counts).  Hardware policies model their own
    #: registers and leave this False; the cache can then skip the
    #: metadata bookkeeping for speed.
    needs_line_metadata = False

    def __init__(self) -> None:
        self.config = None
        self.num_sets = 0
        self.ways = 0

    def bind(self, config) -> None:
        """Attach the policy to a cache geometry; allocates per-set state."""
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._post_bind()

    def _post_bind(self) -> None:
        """Subclass hook: allocate per-set/per-line state after binding."""

    # -- event hooks ------------------------------------------------------

    def on_hit(self, set_index: int, way: int, line, access) -> None:
        """Called on every cache hit, after line metadata is updated."""

    def on_miss(self, set_index: int, access) -> None:
        """Called on every cache miss, before victim selection / fill."""

    def on_fill(self, set_index: int, way: int, line, access) -> None:
        """Called after a new line is installed in ``way``."""

    def on_evict(self, set_index: int, way: int, line, access) -> None:
        """Called just before ``line`` is evicted to make room for ``access``."""

    @abstractmethod
    def victim(self, set_index: int, cache_set, access) -> int:
        """Pick a way to evict from a *full* set.

        Returns a way index in ``range(self.ways)``, or :data:`BYPASS` to
        skip caching the access (only honoured if the cache enables bypass).
        """

    # -- hardware accounting ----------------------------------------------

    @classmethod
    def overhead_bits(cls, config) -> int:
        """Total storage overhead in bits for a cache with ``config``.

        Used to regenerate Table I.  Subclasses override; the base returns 0
        (a policy with no replacement state, e.g. random).
        """
        return 0

    @classmethod
    def overhead_kib(cls, config) -> float:
        """Storage overhead in KiB (Table I reports KB = KiB)."""
        return cls.overhead_bits(config) / 8 / 1024


#: name -> policy factory (callable returning an unbound policy instance).
POLICY_REGISTRY = {}


def register_policy(factory, name=None):
    """Register ``factory`` under ``name`` (defaults to ``factory.name``).

    Usable as a decorator on policy classes.
    """
    key = name or factory.name
    POLICY_REGISTRY[key] = factory
    return factory


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise ValueError(f"unknown policy {name!r}; known: {known}") from None
    return factory(**kwargs)
