"""Mutation checks: each row breaks the package in one place, and named tests must fail.

    python tests/mutants.py           # every row
    python tests/mutants.py NAME...   # the named rows

Run it from the root of a checkout.  pytest does not collect this file (it is not
test_*.py).  A row gives a file, the exact old text, the new text and the test node ids
that the mutant must fail.  The runner first runs each row's tests on an unmutated copy,
where they must pass.  Then, for each row, it copies pyproject.toml, src/ and tests/
into a temporary directory (and perfbench/ when a named test's file reads it), replaces
the old text, which must occur exactly once, and runs only that row's tests there.  A
row's mutant is killed when every one of its tests fails.  The exit code is 1 if an old
text does not match, a test fails unmutated, or a mutant survives.  Nothing is written
in the checkout.

A row goes only with the code it mutates, and a surviving row is fixed with a test.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SPECTRUM, QUANTUM = "src/kickedharper/spectrum.py", "src/kickedharper/quantum.py"
ANALYSIS = "src/kickedharper/analysis.py"
T_SPECTRUM, T_QUANTUM = "tests/test_spectrum.py", "tests/test_quantum.py"
T_ANALYSIS = "tests/test_analysis.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    nodes: tuple


MUTANTS = [
    Mutant("twisted-grid sign: q_k = (2*pi*k - theta)/P", SPECTRUM,
           "np.cos((TWO_PI * sites + phis[:, None, None]) / period)",
           "np.cos((TWO_PI * sites - phis[:, None, None]) / period)",
           (f"{T_SPECTRUM}::test_bloch_matrix_equals_the_kick_band_sum",)),
    Mutant("QuadraticPhase.period always b", QUANTUM,
           "return b if a * b % 2 == 0 else 2 * b", "return b",
           (f"{T_SPECTRUM}::test_lattice_period_equals_the_candidate_scan_and_factor_periods_are_exact",
            f"{T_SPECTRUM}::test_lattice_period_per_model")),
    Mutant("QuadraticPhase.period always 2b", QUANTUM,
           "return b if a * b % 2 == 0 else 2 * b", "return 2 * b",
           (f"{T_SPECTRUM}::test_lattice_period_equals_the_candidate_scan_and_factor_periods_are_exact",
            f"{T_SPECTRUM}::test_lattice_period_per_model")),
    Mutant("fold when the half-period jumps multiply to -1", SPECTRUM,
           "1 if period % 2 or None in jumps or math.prod(jumps) != 1 else 2",
           "1 if period % 2 or None in jumps else 2",
           (f"{T_SPECTRUM}::test_folded_models_commute_with_translation_by_the_folded_period",
            f"{T_SPECTRUM}::test_folded_stacked_spectra_equal_the_unfolded_blocks")),
    Mutant("QuadraticPhase jumps always +1", QUANTUM,
           "return None if shift % b else (-1) ** (a * shift % 2)",
           "return None if shift % b else 1",
           (f"{T_SPECTRUM}::test_diagonal_factor_jumps_follow_their_tags",
            f"{T_SPECTRUM}::test_folded_models_commute_with_translation_by_the_folded_period")),
    Mutant("later kicks keep their sign in _bloch_stack", SPECTRUM,
           "        sign = sign * jump\n", "",
           (f"{T_SPECTRUM}::test_folded_stacked_spectra_equal_the_unfolded_blocks",
            f"{T_SPECTRUM}::test_mirrored_solve_equals_the_full_theta_grid")),
    Mutant("no (-1)^l on a table whose jumps multiply to -1", SPECTRUM,
           "        table *= jump[:, None] ** sites\n", "",
           (f"{T_SPECTRUM}::test_double_kick_butterfly_symmetries_hold",
            f"{T_SPECTRUM}::test_folded_stacked_spectra_equal_the_unfolded_blocks",
            "tests/test_acceptance.py::test_criterion_03_butterfly_symmetries")),
    Mutant("the sites' gauge inverted in build_bloch_matrix", SPECTRUM,
           "[0] * g.conj()[:, None] * g", "[0] * g[:, None] * g.conj()",
           (f"{T_SPECTRUM}::test_bloch_matrix_equals_the_kick_band_sum",)),
    Mutant("h = t instead of t^(1/2) in _solve_stack", SPECTRUM,
           "h = np.sqrt([_diagonal_table(fs, 0, period)[mirror] for ((_, fs),) in steps])",
           "h = np.array([_diagonal_table(fs, 0, period)[mirror] for ((_, fs),) in steps])",
           (f"{T_SPECTRUM}::test_real_khm_solve_takes_one_square_root_per_site_pair",
            f"{T_SPECTRUM}::test_real_khm_solve_reads_each_block_with_its_own_model")),
    Mutant("the first pole's sign flipped", SPECTRUM,
           "pole = CAYLEY_TILT - np.angle(", "pole = CAYLEY_TILT + np.angle(",
           (f"{T_SPECTRUM}::test_first_pole_lies_opposite_the_spectral_centroid",
            f"{T_SPECTRUM}::test_real_khm_solve_re_solves_a_block_near_its_first_pole")),
    Mutant("the edge mass at a fixed 8-site margin", QUANTUM,
           "np.add.reduce(prob[:margin]) + np.add.reduce(prob[-margin:])",
           "np.add.reduce(prob[:8]) + np.add.reduce(prob[-8:])",
           (f"{T_QUANTUM}::test_evolve_follows_the_stepped_loop_on_a_lattice_that_is_not_a_power_of_two",
            f"{T_QUANTUM}::test_evolve_matches_manual_floquet_loop",
            "tests/test_golden.py::test_cli_outputs_match_the_golden_files[evolve_growing]")),
    Mutant("the kick-coefficient tail guard removed", QUANTUM,
           "    if cutoff >= n_grid // 2:\n"
           '        raise NumericalError("kick coefficient tail reaches the sampling grid edge")\n',
           "",
           (f"{T_QUANTUM}::test_kick_coefficients_raise_when_the_tail_reaches_the_grid_edge",)),
    Mutant("the Bloch unitarity raise removed", SPECTRUM,
           "    if np.any(err > UNITARITY_TOL):\n"
           '        raise NumericalError(f"Bloch block unitarity defect {np.max(err):.3e}")\n',
           "",
           ("tests/test_cli.py::test_a_bloch_unitarity_defect_raises_and_exits_four",)),
    Mutant("the shift search stops at half the best gap", ANALYSIS,
           "if first_gap[j] >= best:", "if first_gap[j] >= best / 2:",
           (f"{T_ANALYSIS}::test_spectrum_distance_equals_the_brute_force_over_every_shift",
            f"{T_ANALYSIS}::test_spectrum_distance_is_a_pseudometric")),
    Mutant("the odd-map pi offset dropped (test helper)", T_SPECTRUM,
           "def equivalent_khm_points(num, den, alpha, offset=math.pi):",
           "def equivalent_khm_points(num, den, alpha, offset=0.0):",
           (f"{T_SPECTRUM}::test_resonant_double_kick_blocks_are_phased_khm_blocks[1-3]",
            f"{T_SPECTRUM}::test_resonant_double_kick_blocks_are_phased_khm_blocks[3-7]",
            f"{T_SPECTRUM}::test_resonant_double_kick_blocks_are_phased_khm_blocks[5-13]")),
    Mutant("no work cap on the process pool", SPECTRUM,
           "os.cpu_count() or 1, work // POOL_WORK)", "os.cpu_count() or 1)",
           (f"{T_SPECTRUM}::test_butterfly_scan_caps_workers_at_rationals_and_cpus",
            f"{T_SPECTRUM}::test_the_pool_starts_only_when_the_solve_work_repays_it")),
]

RESULT = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


def copy_tree(dest: Path, nodes) -> None:
    """pyproject.toml, src/ and tests/ of the checkout into dest, and perfbench/ (without
    its outputs) when one of the nodes' test files reads it."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copy2(ROOT / "pyproject.toml", dest)
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    if any("perfbench" in (ROOT / n.split("::")[0]).read_text() for n in nodes):
        shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)


def run_nodes(tree: Path, nodes) -> dict:
    """{node: set of outcomes of its items} from one pytest run of the nodes in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                           *nodes], cwd=tree, env=env, capture_output=True, text=True)
    outcomes = {node: set() for node in nodes}
    for outcome, item in RESULT.findall(proc.stdout):
        for node in nodes:
            if item == node or item.startswith(node + "["):
                outcomes[node].add(outcome)
    missing = [node for node, seen in outcomes.items() if not seen]
    if missing:
        sys.exit(f"pytest reported no result for {missing}:\n{proc.stdout[-3000:]}{proc.stderr}")
    return outcomes


def check_row(row: Mutant) -> str | None:
    """None if the row's mutant is killed, else why it is not."""
    if not row.nodes:
        return "the row names no tests"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree, row.nodes)
        target = tree / row.path
        text = target.read_text()
        if text.count(row.old) != 1:
            return f"old text found {text.count(row.old)} times in {row.path}"
        target.write_text(text.replace(row.old, row.new))
        survived = [node for node, seen in run_nodes(tree, row.nodes).items()
                    if not seen & {"FAILED", "ERROR"}]
    return f"passed under the mutant: {survived}" if survived else None


def check_unmutated(rows) -> list:
    """Each row's tests on an unmutated copy, which must import the copy's package: the
    node ids that did not pass."""
    nodes = list(dict.fromkeys(node for row in rows for node in row.nodes))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree, nodes)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        probe = [sys.executable, "-c", "import kickedharper; print(kickedharper.__file__)"]
        where = subprocess.run(probe, cwd=tree, env=env, capture_output=True, text=True,
                               check=True)
        if not Path(where.stdout.strip()).is_relative_to(tree):
            sys.exit(f"the copy imports kickedharper from {where.stdout.strip()}")
        return [node for node, seen in run_nodes(tree, nodes).items() if seen != {"PASSED"}]


def main(names) -> int:
    unknown = set(names) - {row.name for row in MUTANTS}
    if unknown:
        sys.exit(f"no such rows: {sorted(unknown)}")
    rows = [row for row in MUTANTS if not names or row.name in names]
    start = time.perf_counter()
    failing = check_unmutated(rows)
    if failing:
        print(f"fail unmutated: {failing}")
        return 1
    survivors = 0
    for row in rows:
        problem = check_row(row)
        survivors += problem is not None
        print(f"{'NOT KILLED' if problem else 'killed'} {row.name}"
              + (f": {problem}" if problem else f" ({len(row.nodes)} tests)"), flush=True)
    print(f"{len(rows) - survivors} of {len(rows)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
