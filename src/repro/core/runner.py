"""Study results: one :class:`RunPoint` per measured configuration.

A point is what the study's harness recorded for one (algorithm, size,
power cap) cell of Tables I–III, with the substitutions of DESIGN.md §2:
the real algorithm runs once per (algorithm, size) to record its work
profile, and each cap reprices that profile on the simulated socket
(capping changes the machine, not the work).  The sweep engine
(:mod:`repro.core.engine`) does the running; this module holds the
result types and :func:`make_run_point`, the one place a capped run and
its TDP baseline become a table cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..machine.simulator import RunResult
from .atomicio import atomic_write_text
from .metrics import Ratios

__all__ = ["RunPoint", "StudyResult", "make_run_point", "DEFAULT_VIZ_CYCLES"]

#: Format tag + version of the StudyResult JSON-lines serialization.
RESULT_FORMAT = "repro-study-result"
RESULT_VERSION = 1

#: Visualization cycles per run: the study couples CloverLeaf's ~87-step
#: benchmark with per-cycle visualization; total times in its tables
#: aggregate "all visualization cycles".
DEFAULT_VIZ_CYCLES = 87


@dataclass(frozen=True)
class RunPoint:
    """One configuration's measurements (a cell of Tables I–III)."""

    algorithm: str
    size: int
    cap_w: float
    time_s: float
    energy_j: float
    power_w: float
    freq_ghz: float
    ipc: float
    llc_miss_rate: float
    ratios: Ratios

    @property
    def pratio(self) -> float:
        return self.ratios.pratio

    @property
    def tratio(self) -> float:
        return self.ratios.tratio

    @property
    def fratio(self) -> float:
        return self.ratios.fratio

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Plain-dict form; floats round-trip bitwise through JSON."""
        return {
            "algorithm": self.algorithm,
            "size": self.size,
            "cap_w": self.cap_w,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "power_w": self.power_w,
            "freq_ghz": self.freq_ghz,
            "ipc": self.ipc,
            "llc_miss_rate": self.llc_miss_rate,
            "ratios": self.ratios.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunPoint":
        return cls(
            algorithm=str(d["algorithm"]),
            size=int(d["size"]),
            cap_w=float(d["cap_w"]),
            time_s=float(d["time_s"]),
            energy_j=float(d["energy_j"]),
            power_w=float(d["power_w"]),
            freq_ghz=float(d["freq_ghz"]),
            ipc=float(d["ipc"]),
            llc_miss_rate=float(d["llc_miss_rate"]),
            ratios=Ratios.from_dict(d["ratios"]),
        )

    def to_jsonl(self) -> str:
        """One JSON line (no trailing newline)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_jsonl(cls, line: str) -> "RunPoint":
        return cls.from_dict(json.loads(line))

    @property
    def key(self) -> tuple[str, int, float]:
        """The configuration cell this point measures."""
        return (self.algorithm, self.size, self.cap_w)


@dataclass
class StudyResult:
    """All RunPoints of a sweep, with selection helpers."""

    config_name: str
    points: list[RunPoint] = field(default_factory=list)

    def select(
        self, *, algorithm: str | None = None, size: int | None = None, cap_w: float | None = None
    ) -> list[RunPoint]:
        out = self.points
        if algorithm is not None:
            out = [p for p in out if p.algorithm == algorithm]
        if size is not None:
            out = [p for p in out if p.size == size]
        if cap_w is not None:
            # Caps are floats and travel through CSV/JSONL: exact ==
            # silently drops fractional caps (62.5 W) that picked up a
            # last-ulp wobble on a round-trip, so match with a tolerance
            # far below any physically distinct cap spacing.
            out = [
                p for p in out if math.isclose(p.cap_w, cap_w, rel_tol=1e-9, abs_tol=1e-6)
            ]
        return out

    def filter(
        self, *, algorithm: str | None = None, size: int | None = None, cap_w: float | None = None
    ) -> list[RunPoint]:
        """Alias of :meth:`select` (float-tolerant on ``cap_w``)."""
        return self.select(algorithm=algorithm, size=size, cap_w=cap_w)

    def baseline(self, algorithm: str, size: int) -> RunPoint:
        """The default-power (highest-cap) point for an algorithm/size."""
        rows = self.select(algorithm=algorithm, size=size)
        if not rows:
            raise KeyError(f"no points for {algorithm} at {size}^3")
        return max(rows, key=lambda p: p.cap_w)

    @property
    def algorithms(self) -> list[str]:
        seen: dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.algorithm, None)
        return list(seen)

    @property
    def sizes(self) -> list[int]:
        return sorted({p.size for p in self.points})

    @property
    def caps(self) -> list[float]:
        return sorted({p.cap_w for p in self.points}, reverse=True)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "format": RESULT_FORMAT,
            "version": RESULT_VERSION,
            "config_name": self.config_name,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StudyResult":
        if d.get("format", RESULT_FORMAT) != RESULT_FORMAT:
            raise ValueError(f"not a study result: format={d.get('format')!r}")
        version = int(d.get("version", 1))
        if version > RESULT_VERSION:
            raise ValueError(f"study result version {version} is newer than supported {RESULT_VERSION}")
        return cls(
            config_name=str(d["config_name"]),
            points=[RunPoint.from_dict(p) for p in d["points"]],
        )

    def to_jsonl(self, path: str | Path | None = None) -> str:
        """JSON-lines form: a header line, then one line per point.

        When ``path`` is given the text is also written there.
        """
        header = {
            "format": RESULT_FORMAT,
            "version": RESULT_VERSION,
            "config_name": self.config_name,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(p.to_jsonl() for p in self.points)
        text = "\n".join(lines) + "\n"
        if path is not None:
            atomic_write_text(Path(path), text)
        return text

    @classmethod
    def from_jsonl(cls, source: str | Path) -> "StudyResult":
        """Parse :meth:`to_jsonl` output (a path or the text itself).

        A string is treated as inline JSONL text when it starts with
        ``{`` (every serialized result opens with its JSON header line),
        otherwise as a filesystem path.  This keeps a header-only result
        — a single line with no ``\\n`` — parseable as text instead of
        raising ``FileNotFoundError``.
        """
        if isinstance(source, Path):
            text = source.read_text()
        elif source.lstrip().startswith("{") or "\n" in source:
            text = source
        else:
            text = Path(source).read_text()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty study result")
        header = json.loads(lines[0])
        if header.get("format") != RESULT_FORMAT:
            raise ValueError(f"not a study result: format={header.get('format')!r}")
        if int(header.get("version", 1)) > RESULT_VERSION:
            raise ValueError(f"study result version {header['version']} is newer than supported {RESULT_VERSION}")
        return cls(
            config_name=str(header["config_name"]),
            points=[RunPoint.from_jsonl(ln) for ln in lines[1:]],
        )


def make_run_point(
    algorithm: str,
    size: int,
    cap: float,
    run: RunResult,
    base: RunResult,
    default_cap: float,
) -> RunPoint:
    """Assemble one table cell from a capped run and its TDP baseline.

    The :class:`~repro.core.engine.SweepEngine` builds every point here;
    :class:`~repro.core.pricing.BatchRepricer` reproduces it bitwise.
    """
    ratios = Ratios.from_measurements(
        cap_default_w=default_cap,
        cap_w=cap,
        time_default_s=base.time_s,
        time_s=run.time_s,
        freq_default_ghz=base.effective_freq_ghz,
        freq_ghz=run.effective_freq_ghz,
    )
    return RunPoint(
        algorithm=algorithm,
        size=size,
        cap_w=cap,
        time_s=run.time_s,
        energy_j=run.energy_j,
        power_w=run.avg_power_w,
        freq_ghz=run.effective_freq_ghz,
        ipc=run.ipc,
        llc_miss_rate=run.llc_miss_rate,
        ratios=ratios,
    )
