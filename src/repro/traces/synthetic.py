"""Synthetic access-pattern generators.

These are the building blocks for the SPEC-like / CloudSuite-like workload
models (:mod:`repro.traces.spec_models`).  Each generator yields
``(line_index, pc_id, is_write)`` tuples; :class:`PatternMixer` assembles
them into :class:`repro.traces.record.Trace` objects with addresses, PCs and
per-access instruction deltas.

All generators are deterministic given their RNG, so every experiment in the
repository is exactly reproducible.
"""

from __future__ import annotations

import bisect
import random

from repro.traces.record import AccessType, OFFSET_BITS, Trace, TraceRecord


def sequential_stream(length: int, working_set: int, start: int = 0):
    """A streaming scan: lines visited in order, wrapping at ``working_set``.

    Prefetch-friendly; no temporal reuse until the wrap (classic lbm /
    libquantum behaviour).
    """
    for i in range(length):
        yield (start + i) % working_set, 0, False


def strided_stream(length: int, working_set: int, stride: int, start: int = 0):
    """A strided scan (multi-array stencil codes: GemsFDTD, leslie3d)."""
    position = start
    for _ in range(length):
        yield position % working_set, 1, False
        position += stride


def cyclic_working_set(length: int, working_set: int, stride: int = 3):
    """Loop over a fixed working set: constant reuse distance.

    If ``working_set`` exceeds the cache, LRU thrashes (0% hits) while
    anti-MRU policies retain most of the set — the paper's recency insight.
    The loop advances by a small stride (coprime with the working set, so
    every line is still visited once per cycle): real loop bodies walk
    multi-line records, which keeps a next-line prefetcher from converting
    all loop reuse into prefetch traffic.
    """
    while working_set > 1 and _gcd(stride, working_set) != 1:
        stride += 1
    position = 0
    for _ in range(length):
        yield position, 2, False
        position = (position + stride) % working_set


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def random_uniform(rng: random.Random, length: int, working_set: int):
    """Uniform random accesses over a working set (mcf-like irregularity)."""
    for _ in range(length):
        yield rng.randrange(working_set), 3, False


def pointer_chase(rng: random.Random, length: int, working_set: int):
    """Walk a random permutation cycle: dependent, prefetch-hostile accesses.

    The permutation gives every line the same reuse distance
    (= working_set), modelling linked-data traversals (mcf, astar).
    """
    permutation = list(range(working_set))
    rng.shuffle(permutation)
    position = rng.randrange(working_set)
    for _ in range(length):
        yield position, 4, False
        position = permutation[position]


def zipfian(rng: random.Random, length: int, working_set: int, alpha: float = 1.0):
    """Zipf-skewed accesses: few hot lines, long cold tail (server codes)."""
    # Precompute the CDF once; working sets here are modest (<= ~1e5).
    weights = [1.0 / (rank + 1) ** alpha for rank in range(working_set)]
    total = sum(weights)
    cdf = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    # Map lines through a shuffle so hot lines are scattered across sets.
    placement = list(range(working_set))
    rng.shuffle(placement)
    for _ in range(length):
        rank = bisect.bisect_left(cdf, rng.random())
        yield placement[min(rank, working_set - 1)], 5, False


def scan_with_hot_set(
    rng: random.Random,
    length: int,
    hot_lines: int,
    scan_lines: int,
    hot_fraction: float = 0.5,
    scan_stride: int = 3,
):
    """Interleave a reused hot set with a one-shot scan.

    The canonical pattern where scan-resistant policies (RRIP/SHiP/RLR) beat
    LRU: the scan floods the cache and evicts the hot set under LRU.  The
    scan advances by ``scan_stride`` lines (> 1) so a next-line prefetcher
    does not trivially cover it — real scans over records/objects skip
    within lines and across them.
    """
    scan_position = 0
    for _ in range(length):
        if rng.random() < hot_fraction:
            yield rng.randrange(hot_lines), 6, False
        else:
            # Scan lines live above the hot set in the address space.
            yield hot_lines + scan_position % scan_lines, 7, False
            scan_position += scan_stride


def multi_stream(rng: random.Random, length: int, working_set: int, streams: int = 8):
    """Interleave several strided streams under a single PC.

    Models streaming codes whose concurrent streams defeat hardware
    prefetching (large-footprint HPC codes like lbm/milc at the LLC): the
    streams share one instruction pointer, so an IP-stride prefetcher sees an
    erratic stride and stays quiet, and each stream advances by its own
    stride > 1, so a next-line prefetcher never covers the next access.  The
    result is a no-reuse miss stream at the LLC, as these codes exhibit.
    """
    region = max(1, working_set // streams)
    positions = [rng.randrange(region) for _ in range(streams)]
    strides = [rng.choice((2, 3, 5)) for _ in range(streams)]
    for _ in range(length):
        stream = rng.randrange(streams)
        line = stream * region + positions[stream]
        positions[stream] = (positions[stream] + strides[stream]) % region
        yield line, 9, False


def phased(rng: random.Random, length: int, phases, phase_length: int = None):
    """Concatenate pattern phases (program-phase changes, paper §III-C).

    Args:
        rng: Source of randomness shared by the phases.
        length: Total accesses to generate.
        phases: Sequence of ``make_generator(rng)`` callables, cycled.
        phase_length: Accesses per phase (default: length / len(phases)).

    Adaptive policies (DRRIP's dueling, RLR's RD refresh) must re-learn at
    each boundary; static heuristics cannot.
    """
    if not phases:
        raise ValueError("phased() needs at least one phase")
    if phase_length is None:
        phase_length = max(1, length // len(phases))
    produced = 0
    phase_index = 0
    while produced < length:
        generator = phases[phase_index % len(phases)](rng)
        for _ in range(min(phase_length, length - produced)):
            try:
                yield next(generator)
            except StopIteration:
                break
            produced += 1
        phase_index += 1


#: pc_ids of irregular patterns (random/chase/zipf/scan_hot/multi_stream):
#: their PCs get folded into the shared pool; regular patterns keep clean
#: PCs so stride prefetchers can train.
_IRREGULAR_PC_IDS = frozenset((3, 4, 5, 6, 7, 9))


class PatternMixer:
    """Assemble weighted pattern generators into a single Trace.

    Args:
        name: Trace name.
        seed: RNG seed (patterns and interleaving are deterministic).
        mean_instr_delta: Average instructions between memory references —
            controls memory intensity (and thus MPKI).
        write_fraction: Additional probability of turning any access into a
            store (RFO at L1), on top of pattern-specified writes.
        base_address: Line-address offset for the whole trace (keeps traces
            of co-running cores in disjoint address ranges).
        core: Issuing core id stamped on every record.
        pc_slots: Size of the shared PC pool the patterns' pc_ids are folded
            into.  Real programs issue each access class from many PCs whose
            behaviours overlap; folding pattern PCs into a small shared pool
            (with per-access jitter) models that, keeping PC-based policies
            (SHiP/Hawkeye) informative but not omniscient.  Set to 0 to give
            every pattern its own clean PC (an idealized best case for
            PC-based policies).
        spatial_locality: Probability that an access is followed by a short
            sequential run over its neighbouring lines.  Real programs touch
            multi-line objects even in irregular phases, which is what makes
            next-line prefetchers usefully accurate; without this, every
            next-line prefetch is dead and prefetch-handling policies get an
            unrealistically large lever.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        mean_instr_delta: int = 6,
        write_fraction: float = 0.0,
        base_address: int = 0,
        pc_slots: int = 8,
        spatial_locality: float = 0.35,
        core: int = 0,
    ) -> None:
        self.name = name
        self.seed = seed
        self.mean_instr_delta = mean_instr_delta
        self.write_fraction = write_fraction
        self.base_address = base_address
        self.core = core
        self.pc_slots = pc_slots
        self.spatial_locality = spatial_locality
        self._components = []  # (weight, make_generator)

    def add(self, weight: float, make_generator) -> "PatternMixer":
        """Add a pattern: ``make_generator(rng)`` returns a fresh generator."""
        self._components.append((weight, make_generator))
        return self

    def build(self, length: int) -> Trace:
        """Generate ``length`` records, interleaving patterns by weight."""
        if not self._components:
            raise ValueError("PatternMixer has no patterns")
        rng = random.Random(self.seed)
        generators = []
        weights = []
        for weight, make_generator in self._components:
            generators.append(make_generator(random.Random(rng.randrange(2**31))))
            weights.append(weight)
        total_weight = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total_weight
            cumulative.append(acc)

        records = []
        # Stable across processes (unlike hash(), which is randomized).
        name_digest = sum((i + 1) * ord(ch) for i, ch in enumerate(self.name))
        pc_base = (name_digest & 0xFFFF) << 8
        pending_run = []  # spatial-run continuation lines
        for _ in range(length):
            if pending_run:
                line, pc_id, is_write = pending_run.pop()
            else:
                draw = rng.random()
                index = 0
                while cumulative[index] < draw:
                    index += 1
                try:
                    line, pc_id, is_write = next(generators[index])
                except StopIteration:
                    # Restart exhausted finite patterns.
                    _, make_generator = self._components[index]
                    generators[index] = make_generator(
                        random.Random(rng.randrange(2**31))
                    )
                    line, pc_id, is_write = next(generators[index])
                if rng.random() < self.spatial_locality:
                    run_length = rng.randint(1, 3)
                    pending_run = [
                        (line + offset, pc_id, is_write)
                        for offset in range(run_length, 0, -1)
                    ]
            if not is_write and self.write_fraction > 0:
                is_write = rng.random() < self.write_fraction
            instr_delta = max(1, round(rng.expovariate(1 / self.mean_instr_delta)))
            if self.pc_slots and pc_id in _IRREGULAR_PC_IDS:
                # Fold irregular patterns' PCs into a shared pool with
                # jitter (see ctor).  Regular stream/stride/cyclic patterns
                # keep stable PCs so hardware stride prefetchers can train,
                # as they do on real loop code.
                pc_slot = 16 + (pc_id * 3 + rng.randrange(4)) % self.pc_slots
            else:
                pc_slot = pc_id
            records.append(
                TraceRecord(
                    address=(self.base_address + line) << OFFSET_BITS,
                    pc=pc_base + pc_slot * 4,
                    access_type=AccessType.RFO if is_write else AccessType.LOAD,
                    instr_delta=instr_delta,
                    core=self.core,
                )
            )
        return Trace(self.name, records)
