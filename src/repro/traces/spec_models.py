"""SPEC CPU 2006-like and CloudSuite-like workload models.

The paper evaluates on SimPoint traces of 29 SPEC CPU 2006 benchmarks and 5
CloudSuite benchmarks.  Those traces are proprietary; per DESIGN.md §2 each
benchmark is replaced by a synthetic model that reproduces its *qualitative*
LLC access behaviour — working-set size relative to the LLC, streaming vs.
irregular access, prefetch friendliness, write intensity, and memory
intensity (MPKI class).  Pattern assignments follow the standard
characterization literature for these suites (e.g. Jaleel's memory-
characterization studies and the RRIP/SHiP papers' discussion of which
benchmarks thrash, stream, or fit).

Working-set sizes are expressed as fractions of LLC capacity, so the models
scale with the evaluation configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.traces import synthetic
from repro.traces.record import Trace


@dataclass(frozen=True)
class PatternSpec:
    """One weighted pattern inside a workload model.

    ``working_set`` (and ``scan_lines``) are fractions of LLC lines.
    """

    weight: float
    kind: str  # stream|stride|cyclic|random|chase|zipf|scan_hot|multi_stream
    working_set: float
    stride: int = 1
    alpha: float = 1.0
    scan_lines: float = 0.0
    hot_fraction: float = 0.5
    streams: int = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete benchmark model."""

    name: str
    suite: str  # "spec2006" or "cloudsuite"
    patterns: tuple
    mean_instr_delta: int = 6
    write_fraction: float = 0.1
    mpki_class: str = "high"  # informational: "high" or "low"


def _lines(fraction: float, llc_lines: int) -> int:
    return max(32, int(fraction * llc_lines))


def _make_generator(pattern: PatternSpec, llc_lines: int, length: int, offset: int):
    """Build a make_generator callable for PatternMixer, shifted by offset."""
    working_set = _lines(pattern.working_set, llc_lines)

    def shifted(generator):
        for line, pc_id, is_write in generator:
            yield line + offset, pc_id, is_write

    kind = pattern.kind
    if kind == "stream":
        return lambda rng: shifted(synthetic.sequential_stream(length, working_set))
    if kind == "stride":
        return lambda rng: shifted(
            synthetic.strided_stream(length, working_set, pattern.stride)
        )
    if kind == "cyclic":
        return lambda rng: shifted(synthetic.cyclic_working_set(length, working_set))
    if kind == "random":
        return lambda rng: shifted(synthetic.random_uniform(rng, length, working_set))
    if kind == "chase":
        return lambda rng: shifted(synthetic.pointer_chase(rng, length, working_set))
    if kind == "zipf":
        return lambda rng: shifted(
            synthetic.zipfian(rng, length, working_set, pattern.alpha)
        )
    if kind == "multi_stream":
        return lambda rng: shifted(
            synthetic.multi_stream(rng, length, working_set, pattern.streams)
        )
    if kind == "scan_hot":
        scan = _lines(pattern.scan_lines or pattern.working_set, llc_lines)
        return lambda rng: shifted(
            synthetic.scan_with_hot_set(
                rng, length, working_set, scan, pattern.hot_fraction
            )
        )
    raise ValueError(f"unknown pattern kind {kind!r}")


def build_trace(
    spec: WorkloadSpec, llc_lines: int, length: int, seed: int = 0, core: int = 0
) -> Trace:
    """Instantiate a workload model as a concrete trace.

    Args:
        spec: The workload model.
        llc_lines: LLC capacity in lines (working sets scale with this).
        length: Number of memory references to generate.
        seed: RNG seed.
        core: Issuing core id stamped on every record.
    """
    mixer = synthetic.PatternMixer(
        spec.name,
        seed=seed,
        mean_instr_delta=spec.mean_instr_delta,
        write_fraction=spec.write_fraction,
        base_address=core << 28,  # disjoint address spaces per core
        core=core,
    )
    offset = 0
    for pattern in spec.patterns:
        mixer.add(pattern.weight, _make_generator(pattern, llc_lines, length, offset))
        offset += _lines(max(pattern.working_set, pattern.scan_lines), llc_lines) + 64
    return mixer.build(length)


def _spec(name, patterns, instr=6, writes=0.1, mpki="high"):
    return WorkloadSpec(name, "spec2006", tuple(patterns), instr, writes, mpki)


def _cloud(name, patterns, instr=8, writes=0.15, mpki="high"):
    return WorkloadSpec(name, "cloudsuite", tuple(patterns), instr, writes, mpki)


P = PatternSpec

#: The 29 SPEC CPU 2006 models (Figure 10's x-axis).  ``instr`` (mean
#: instructions per memory reference) is calibrated so LRU demand MPKI at the
#: default evaluation scale lands near the paper's Figure 12 values.
SPEC2006 = [
    _spec("473.astar", [P(0.3, "chase", 3.0), P(0.7, "zipf", 0.6, alpha=1.0)], instr=14),
    _spec("410.bwaves", [P(0.5, "multi_stream", 12.0, streams=6), P(0.4, "stride", 12.0, stride=3), P(0.1, "zipf", 0.8)], instr=14),
    _spec("401.bzip2", [P(0.4, "stream", 1.2), P(0.6, "zipf", 0.4, alpha=1.2)], instr=14),
    _spec("436.cactusADM", [P(0.4, "stride", 10.0, stride=5), P(0.25, "multi_stream", 8.0), P(0.35, "cyclic", 1.5)], instr=20),
    _spec("454.calculix", [P(0.8, "cyclic", 0.15), P(0.2, "stride", 0.4, stride=2)], instr=18, mpki="low"),
    _spec("447.dealII", [P(0.9, "zipf", 0.2, alpha=1.3), P(0.1, "stream", 0.3)], instr=16, mpki="low"),
    _spec("416.gamess", [P(1.0, "cyclic", 0.08)], instr=25, mpki="low"),
    _spec("403.gcc", [P(0.4, "cyclic", 1.4), P(0.35, "zipf", 0.35, alpha=1.2), P(0.25, "stream", 1.0)], instr=12),
    _spec("459.GemsFDTD", [P(0.35, "stride", 12.0, stride=2), P(0.35, "cyclic", 1.5), P(0.3, "multi_stream", 8.0)], instr=12),
    _spec("445.gobmk", [P(0.8, "zipf", 0.25, alpha=1.1), P(0.2, "random", 0.3)], instr=15, mpki="low"),
    _spec("435.gromacs", [P(0.9, "cyclic", 0.12), P(0.1, "stride", 0.3, stride=4)], instr=14, mpki="low"),
    _spec("464.h264ref", [P(0.7, "zipf", 0.3, alpha=1.2), P(0.3, "stream", 0.5)], instr=12, mpki="low"),
    _spec("456.hmmer", [P(0.9, "cyclic", 0.1), P(0.1, "stream", 0.2)], instr=13, mpki="low"),
    _spec("470.lbm", [P(0.55, "multi_stream", 10.0, streams=8), P(0.3, "cyclic", 1.3), P(0.15, "stream", 1.5)], instr=12, writes=0.45),
    _spec("437.leslie3d", [P(0.35, "stride", 12.0, stride=2), P(0.35, "cyclic", 1.4), P(0.3, "multi_stream", 8.0)], instr=14),
    _spec("462.libquantum", [P(0.75, "multi_stream", 12.0, streams=2), P(0.25, "stream", 0.3)], instr=12, writes=0.25),
    _spec("429.mcf", [P(0.45, "chase", 4.0), P(0.2, "random", 3.0), P(0.35, "zipf", 0.7)], instr=22),
    _spec("433.milc", [P(0.55, "multi_stream", 12.0), P(0.2, "stride", 2.0, stride=7), P(0.25, "cyclic", 1.3)], instr=14),
    _spec("444.namd", [P(1.0, "cyclic", 0.1)], instr=20, mpki="low"),
    _spec("471.omnetpp", [P(0.4, "scan_hot", 0.8, scan_lines=3.0, hot_fraction=0.6), P(0.25, "zipf", 0.7), P(0.35, "cyclic", 1.5)], instr=10),
    _spec("400.perlbench", [P(0.8, "zipf", 0.3, alpha=1.3), P(0.2, "chase", 0.2)], instr=14, mpki="low"),
    _spec("453.povray", [P(1.0, "zipf", 0.08, alpha=1.4)], instr=24, mpki="low"),
    _spec("458.sjeng", [P(0.7, "random", 0.35), P(0.3, "cyclic", 0.15)], instr=16, mpki="low"),
    _spec("450.soplex", [P(0.4, "scan_hot", 0.2, scan_lines=2.0, hot_fraction=0.6), P(0.3, "cyclic", 1.4), P(0.3, "stride", 10.0, stride=3)], instr=9),
    _spec("482.sphinx3", [P(0.35, "zipf", 0.5, alpha=1.1), P(0.35, "cyclic", 1.6), P(0.3, "multi_stream", 6.0)], instr=10),
    _spec("465.tonto", [P(0.9, "cyclic", 0.12), P(0.1, "zipf", 0.25)], instr=17, mpki="low"),
    _spec("481.wrf", [P(0.5, "stride", 10.0, stride=2), P(0.3, "cyclic", 0.8), P(0.2, "multi_stream", 8.0)], instr=13),
    _spec("483.xalancbmk", [P(0.4, "zipf", 0.6, alpha=1.0), P(0.3, "scan_hot", 0.5, scan_lines=2.0), P(0.3, "cyclic", 1.3)], instr=9),
    _spec("434.zeusmp", [P(0.55, "stride", 2.0, stride=4), P(0.45, "cyclic", 1.1)], instr=11),
]

#: The 5 CloudSuite models (Figure 11's x-axis).
CLOUDSUITE = [
    _cloud("cassandra", [P(0.5, "zipf", 0.8, alpha=1.0), P(0.3, "scan_hot", 0.6, scan_lines=2.0), P(0.2, "random", 0.5)], instr=12),
    _cloud("classification", [P(0.6, "multi_stream", 10.0), P(0.4, "zipf", 0.5)], instr=16),
    _cloud("cloud9", [P(0.5, "zipf", 0.6), P(0.3, "chase", 2.5), P(0.2, "stream", 1.5)], instr=11),
    _cloud("nutch", [P(0.6, "zipf", 0.6, alpha=0.9), P(0.4, "cyclic", 1.2)], instr=13),
    _cloud("streaming", [P(0.5, "multi_stream", 10.0), P(0.3, "scan_hot", 0.5, scan_lines=2.5, hot_fraction=0.6), P(0.2, "stream", 1.0)], instr=14, writes=0.2),
]

#: name -> spec, over both suites.
ALL_WORKLOADS = {spec.name: spec for spec in SPEC2006 + CLOUDSUITE}


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload model by benchmark name."""
    try:
        return ALL_WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(ALL_WORKLOADS))
        raise ValueError(f"unknown workload {name!r}; known: {known}") from None
