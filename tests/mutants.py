"""Source mutants that the test suite must kill, and the runner that checks it.

Each mutant is one exact edit of one file under ``src/linksig``: the old
text, which must occur exactly once, the new text, and the pytest node ids
of the tests that must fail under it.  pytest does not collect this file.
Run it from the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants

For each mutant the runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a fresh temporary directory, applies the edit to the copy and runs the
named tests there with ``-q -rf -p no:cacheprovider``, with the copy's
``src/`` first on PYTHONPATH.  A mutant is killed when every one of its
tests fails.  The runner exits 1 when a mutant survives any of them, or
when an old text does not occur exactly once, so an edit of the source
that moves a mutated line must update this list too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/linksig
    old: str
    new: str
    tests: tuple[str, ...]


BURAU = "tests/test_burau_crosscheck.py::"
SERIES = BURAU + "test_conway_series_equals_the_potentials_of_the_twisted_words"

MUTANTS = [
    # the Burau loop of both Conway kernels (`_burau_at`), the direct
    # kernel's width and the midpoint split's readback; the loop mutants
    # are named for the direct kernel, which the loop came from
    Mutant("column-norms-positive-rule", "seifert.py",
           "norms[i], norms[i + 1] = 2 * a + b, a",
           "norms[i], norms[i + 1] = a + b, a",
           (BURAU + "test_column_norms_bound_the_burau_columns",)),
    Mutant("column-norms-negative-rule", "seifert.py",
           "norms[i], norms[i + 1] = b, a + 2 * b",
           "norms[i], norms[i + 1] = b, a + b",
           (BURAU + "test_column_norms_bound_the_burau_columns",)),
    Mutant("direct-offset-not-reset", "seifert.py",
           "cols[i + 1], offs[i + 1] = [x << k for x in a], 0",
           "cols[i + 1] = [x << k for x in a]",
           (BURAU + "test_conway_potential_equals_unreduced_burau_route",)),
    Mutant("direct-negative-letter-keeps-offset", "seifert.py",
           "for x, y in zip(a, b)]\n                    offs[i + 1] = ob\n",
           "for x, y in zip(a, b)]\n",
           (BURAU + "test_conway_potential_equals_unreduced_burau_route",)),
    Mutant("split-offsets-swapped", "seifert.py",
           "sa, sb = k * (o - oa), k * (o - ob)",
           "sb, sa = k * (o - oa), k * (o - ob)",
           (BURAU + "test_conway_potential_equals_unreduced_burau_route",)),
    Mutant("split-readback-key-step", "seifert.py",
           "key += m\n", "key += 1\n",
           (BURAU + "test_conway_potential_equals_unreduced_burau_route",)),
    Mutant("split-sign-dropped", "seifert.py",
           "return low + e_u, [-x for x in det] if e_u % 2 else det",
           "return low + e_u, det",
           (BURAU + "test_conway_potential_equals_unreduced_burau_route",)),
    Mutant("direct-bits-312", "seifert.py",
           "_DIRECT_BITS = 320", "_DIRECT_BITS = 312",
           (BURAU + "test_proven_width_picks_the_kernel",)),
    # the one Conway pipeline (`_conway_series`, whose one-cut case is
    # `conway_potential`): one Burau loop cut after the word and each twist
    Mutant("split-closure-return-removed", "seifert.py",
           "    if all(split):\n"
           "        return [LaurentPolynomial.zero()] * count\n",
           "",
           (BURAU + "test_split_closures_take_no_burau_work", SERIES)),
    Mutant("series-unit-not-advanced", "seifert.py",
           "(m, unit - j * step,", "(m, unit,",
           (SERIES, "tests/test_genskein.py::TestResiduals::"
            "test_crossing_relation_seeded")),
    Mutant("series-twist-indices-not-present", "seifert.py",
           "present.update(map(abs, run))",
           "present.update(map(abs, letters))",
           (SERIES,)),
    Mutant("series-width-from-the-whole-word-only", "seifert.py",
           "k = _proven_width(m, runs)",
           "k = _proven_width(m, [letters + twist * (count - 1)])",
           (SERIES,)),
    Mutant("series-step-counts-letters", "seifert.py",
           "step = sum(1 if x > 0 else -1 for x in twist)",
           "step = len(twist)",
           (SERIES,)),
    # past `_DIRECT_BITS`, the midpoint split of each twisted word
    Mutant("series-direct-kernel-past-direct-bits", "seifert.py",
           "direct = k * (m - 1) <= _DIRECT_BITS", "direct = True",
           (SERIES,)),
    Mutant("series-split-kernel-drops-the-twists", "seifert.py",
           "_split_determinant(m, letters + twist * j)",
           "_split_determinant(m, letters)",
           (SERIES,)),
    # the one packing rule
    Mutant("byte-width-without-guard-bit", "intmatrix.py",
           "(bound.bit_length() + 8) // 8 * 8",
           "(bound.bit_length() + 7) // 8 * 8",
           ("tests/test_intmatrix.py::test_byte_width_keeps_a_guard_bit",
            BURAU + "test_proven_width_is_above_the_hadamard_bound")),
    Mutant("zero-low-digits-not-shifted-out", "intmatrix.py",
           "    det >>= k * zeros\n", "",
           ("tests/test_intmatrix.py::test_exact_determinant_matches_leibniz",
            BURAU + "test_conway_potential_equals_unreduced_burau_route")),
    Mutant("balanced-digits-refuse-count-0", "intmatrix.py",
           "per = min(count, 16) or 1", "per = min(count, 16)",
           ("tests/test_seifert.py::test_link_det_equals_seifert_elimination",)),
    Mutant("hadamard-bound-halved", "intmatrix.py",
           "k = _byte_width(isqrt(min(by_cols, by_rows)))",
           "k = _byte_width(isqrt(min(by_cols, by_rows)) // 2)",
           (BURAU + "test_packed_determinant_equals_laurent_bareiss",)),
    # one per kernel with an independent oracle
    Mutant("eliminate-pivot-sign", "intmatrix.py",
           "if (piv > 0) == (div > 0):", "if piv > 0:",
           ("tests/test_intmatrix.py::test_matches_rational_ldlt",
            "tests/test_seifert.py::test_seifert_form_equals_goeritz_matrix")),
    Mutant("divide-power-minus-one-stride", "laurent.py",
           "s[i] += s[i + a]", "s[i] += s[i + a - 1]",
           ("tests/test_laurent.py::test_divide_power_minus_one_equals_exact_div",
            "tests/test_laurent.py::"
            "test_times_then_divide_power_minus_one_round_trips")),
    Mutant("omega-z-rule", "splice.py",
           "if vanishing > 0:", "if vanishing > 1:",
           ("tests/test_splice.py::TestNabla::test_omega_equals_expanded_product",)),
    Mutant("deg9-ineq10-cap", "prohibit.py",
           "cap = 9 + 2 * s.beta", "cap = 7 + 2 * s.beta",
           ("tests/test_prohibit.py::TestEnumeration::test_matches_family_closed_form",
            "tests/test_acceptance.py::test_criterion_10_prohibitions")),
    # the far-pair cancellation in front of both routes of the report
    Mutant("far-pairs-without-upper-neighbour", "braid.py",
           "if (not below or below[-1] < p) and (not above or above[-1] < p):",
           "if not below or below[-1] < p:",
           ("tests/test_braid.py::test_cancel_far_pairs_keeps_the_braid",
            "tests/test_seifert.py::"
            "test_report_equals_the_dense_form_of_the_input_word",
            "tests/test_seifert.py::test_report_takes_one_cancelled_word")),
    Mutant("far-pairs-without-lower-neighbour", "braid.py",
           "if (not below or below[-1] < p) and (not above or above[-1] < p):",
           "if not above or above[-1] < p:",
           ("tests/test_braid.py::test_cancel_far_pairs_keeps_the_braid",
            "tests/test_seifert.py::"
            "test_report_equals_the_dense_form_of_the_input_word")),
    Mutant("far-pairs-cancel-equal-signs", "braid.py",
           "if kept and out[kept[-1]] == -x:",
           "if kept and out[kept[-1]] == x:",
           ("tests/test_braid.py::test_cancel_far_pairs_keeps_the_braid",
            "tests/test_seifert.py::"
            "test_report_equals_the_dense_form_of_the_input_word",
            "tests/test_seifert.py::test_report_takes_one_cancelled_word")),
]


def _copy(tmp: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _apply(tmp: Path, mutant: Mutant) -> str | None:
    """Edit the copy; the error, or None when the old text occurs once."""
    path = tmp / "src" / "linksig" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        return f"old text occurs {count} times in src/linksig/{mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return None


def _run(mutant: Mutant) -> str | None:
    """The reason the mutant is not killed, or None when it is."""
    with tempfile.TemporaryDirectory(prefix="linksig-mutant-") as name:
        tmp = Path(name)
        _copy(tmp)
        error = _apply(tmp, mutant)
        if error:
            return error
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import linksig; print(linksig.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(tmp)):
            return f"linksig imports from {where.stdout.strip() or where.stderr}"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tmp, env=env, capture_output=True, text=True)
        failed = [line.split()[1] for line in done.stdout.splitlines()
                  if line.startswith("FAILED ")]
        alive = [t for t in mutant.tests
                 if not any(f == t or f.startswith(t + "[") for f in failed)]
        if done.returncode == 1 and not alive:
            return None
        tail = "\n".join(done.stdout.splitlines()[-3:])
        return (f"pytest exit {done.returncode}; not failed: {', '.join(alive)}"
                f"\n{tail}")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        error = _run(mutant)
        took = time.perf_counter() - start
        print(f"{'killed ' if error is None else 'FAILED '} {mutant.name} "
              f"({took:.1f} s)")
        if error:
            failed += 1
            print(f"  {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
