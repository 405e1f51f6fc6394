"""The three benchmark workloads: which CLI commands each runs, and why.

Each workload is a fixed list of CLI runs.  Only the classical run draws
random numbers; its seed is the benchmark's --seed, so the same seed gives
the same inputs.  The reasons are recorded in README.md and BENCHMARK.json.

Sizes are chosen so one iteration takes 5-7 s on a 2-core machine: a 30 s
run then collects 4-6 samples of every command, and their median rides out
the seconds-long slowdowns of a shared host.  At larger sizes (s_max=24,
theta=16 butterflies; fractal theta=32 and 16; 50 000 and 10 000 evolve
periods) a run held one or two samples, two iterations of one command
differed by up to 25%, and wall_s spread 0.14 across five runs.
"""

from __future__ import annotations

from dataclasses import dataclass

FIB_HBAR = "2pi*89/233"

# Model of both scan commands: many small Bloch blocks (P <= 46).
SCAN_MODEL = {"kind": "dkrm-resonant", "k1": 1.0, "k2": 0.5}


@dataclass(frozen=True)
class CliRun:
    """One CLI invocation; `name` is also its timing metric without the `_s`."""

    name: str
    config: dict
    workers: int = 1

    @property
    def metric(self) -> str:
        return self.name + "_s"

    @property
    def reference(self) -> str:
        """Name of the reference file under refs/ (w1 and w2 share one)."""
        return "butterfly" if self.name.startswith("butterfly") else self.name


def workload_runs(workload: str, seed: int) -> list[CliRun]:
    """The CLI runs of one iteration of `workload`, in execution order."""
    if workload == "scan":
        butterfly = {"command": "butterfly", "model": SCAN_MODEL,
                     "s_max": 24, "theta_count": 4}
        return [
            CliRun("butterfly_w1", butterfly, workers=1),
            CliRun("butterfly_w2", butterfly, workers=2),
            CliRun("check_symmetries", {"command": "check-symmetries",
                                        "model": SCAN_MODEL, "s_max": 20,
                                        "theta_count": 32, "n_rationals": 10}),
        ]
    if workload == "critical":
        return [
            CliRun("fractal_khm", {"command": "fractal", "theta_count": 16,
                                   "model": {"kind": "khm", "k1": 1.0, "k2": 1.0,
                                             "hbar": FIB_HBAR}}),
            CliRun("fractal_dkrm", {"command": "fractal", "theta_count": 8,
                                    "model": {"kind": "dkrm-resonant", "k1": 1.0,
                                              "k2": 1.0, "hbar": FIB_HBAR}}),
        ]
    if workload == "transport":
        return [
            CliRun("evolve_localized", {"command": "evolve", "n_steps": 10000,
                                        "record_every": 1,
                                        "model": {"kind": "dkrm-resonant", "k1": 1.8,
                                                  "k2": 1.8, "hbar": "2pi*3/19"}}),
            CliRun("evolve_growing", {"command": "evolve", "n_steps": 5000,
                                      "model": {"kind": "dkrm-resonant", "k1": 3.9,
                                                "k2": 3.9, "hbar": 1.0}}),
            CliRun("classical", {"command": "classical", "n_points": 1000000,
                                 "n_steps": 20000, "seed": seed,
                                 "model": {"kind": "dkrm-resonant", "k1": 1.3,
                                           "k2": 0.7}}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("scan", "critical", "transport")
