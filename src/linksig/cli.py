"""Command-line front end.

Subcommands mirror the library surface: braid invariants, the parametric
families, splice-diagram evaluation, the cyclic-polynomial systems, the
closed-form signatures, randomized verification of the generalized skein
relations, and the curve prohibition reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .braid import BraidWord, family_b, family_c, family_length, family_params
from .closedforms import FormulaNotEstablished, sign_null_b, sign_null_c
from .genskein import (RelationSpec, block_identity_residual,
                       det_relation_check, random_braid, random_laurent,
                       relation_residual)
from .laurent import ExactDivisionError
from .prohibit import CurveParams, verdict_curve, verdict_degree9
from .seifert import invariants_report, signature_nullity
from .skeinpoly import a_pm, a_pm_symbolic, family_det_closed_form
from .splice import SpliceDiagram


#: the largest letters x (strands - 1) that a Conway potential is started for.
#: Its cost follows this product: seeded random words at the limit took
#: 3.9 s on 3 strands (4000 letters), 6.1 s on 5, 8.9 s on 8 (1142 letters),
#: 12.9 s on 16 (533 letters) and 2.8 s on 33 (Python 3.11 on a shared
#: 2-vCPU VM), and it grows faster than the square of the length, so this
#: bound refuses what would run for more than about a quarter of a minute.
MAX_WORD_SIZE = 8000

#: the most trials `skein verify` starts.  The block identity takes about
#: 4 ms a trial whatever the sizes (Python 3.11 on a shared 2-vCPU VM, as
#: for every timing below), and the relations on the default words
#: (3 strands, up to 10 letters) 0.13 ms (conway) to 1.5 ms (b3) a trial, so
#: the bound stops a run near a quarter of a minute.  Longer words are
#: bounded by trials x size^2 as well (`_cmd_skein`).
MAX_TRIALS = 4000

#: the largest Seifert dimension that `closedform --verify/--explore`
#: eliminates.  The cost grows with the dimension and with the strand count
#: 2k+1, so the worst family word of a dimension is one half twist on the
#: most strands.  With n = 1, k = 77 (dimension about 11800) took 9.5 s for
#: `family_b` and 10.8 s for `family_c`, k = 120 (28685) took 66 s, while
#: n = 19, k = 25 (24180) took 3.8 s.
MAX_FAMILY_DIMENSION = 12000

#: the most letters that `family` builds and prints.  Building and printing
#: take about 0.37 us and 90 bytes of peak memory a letter (n = 201, k = 70,
#: 1983873 letters: 0.74 s and 180 MB), so memory is what this bound keeps
#: near 200 MB.
MAX_FAMILY_LETTERS = 2_000_000

#: the largest J that `skeinpoly a --symbolic` expands.  a_J^+- has about
#: L_J monomials (a Lucas number: 103682 at J = 24), so memory and output
#: grow about 1.6x and time about 1.8x with each step in J: J = 24 took
#: 2.9 s, 220 MB of peak memory and 5.4 MB of JSON, J = 26 10 s, 560 MB and
#: 15 MB (Python 3.11 on a shared 2-vCPU VM).  Memory is what this bound
#: keeps near 200 MB, as for `MAX_FAMILY_LETTERS`.
MAX_SYMBOLIC_J = 24

#: the largest splice product that `splice eval` evaluates: a product is
#: refused when D^2 x divisions (`FactorProduct._omega_size`) exceeds this
#: bound squared.  D alone does not bound the cost:
#: `ring_family_diagram(3, [3] * 200)` has D = 3405 and took 22 s.  Just under
#: the bound a whole `splice eval` took 7.0-7.8 s for
#: `ring_family_diagram(3, [670] * 4)` (D = 13413, 5 divisions), 7.3-8.0 s for
#: `ring_family_diagram(3, [3] * 145)` (D = 2470, 146 divisions), 8.9 s for
#: `ring_family_diagram(3, [40] * 27)` and 1.5-3.0 s for the (2, 10605) and
#: (3, 7069) torus knots (D = 21211, 21208); at 1.15x the bound two ring
#: families took 15.5 and 22.7 s in a slower hour (Python 3.11 on a shared
#: 2-vCPU VM).  So the bound stops `omega` near a quarter of a minute.  It
#: covers `omega` only: `nabla_multivariable`, which builds the factors, runs
#: before it with no limit, in time about vertices x arrowheads.
MAX_SPLICE_DEGREE = 30_000

def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _check_word_size(letters: int, strands: int) -> None:
    size = letters * (strands - 1)
    if size > MAX_WORD_SIZE:
        raise ValueError(
            f"word too large: {letters} letters x {strands - 1} strand gaps = "
            f"{size} > {MAX_WORD_SIZE}")


def _cmd_invariants(args) -> int:
    word = BraidWord.from_text(args.strands, args.word)
    _check_word_size(len(word.letters), word.strands)
    print(json.dumps(invariants_report(word), indent=2))
    return 0


def _cmd_family(args) -> int:
    params = family_params(args.kind, args.n, args.k, args.J, _parse_ints(args.alpha))
    letters = family_length(args.kind, params)
    if letters > MAX_FAMILY_LETTERS:
        raise ValueError(f"family word too large: {letters} letters > "
                         f"{MAX_FAMILY_LETTERS}")
    word = family_b(params) if args.kind == "b" else family_c(params)
    print(word.to_text())
    return 0


def _cmd_splice(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        diagram = SpliceDiagram.from_json(json.load(fh))
    try:
        nabla = diagram.nabla_multivariable()
        degree, divisions = nabla._omega_size()
        if degree ** 2 * max(divisions, 1) > MAX_SPLICE_DEGREE ** 2:
            raise ValueError(f"splice product too large: degree {degree}^2 x "
                             f"{divisions} divisions > {MAX_SPLICE_DEGREE}^2")
        omega = nabla.omega()
    except (ZeroDivisionError, ExactDivisionError) as exc:
        # `FactorProduct`'s two refusals: weights that no link has
        raise ValueError(f"no link has these weights: {exc}") from None
    if args.multivariable:
        out = {"sign": nabla.sign, "factors": nabla.describe()}
    else:
        out = {"omega": str(omega), "omega_coeffs": omega.to_json()}
    out["det"] = str(omega.eval_at_i())
    print(json.dumps(out, indent=2))
    return 0


def _cmd_skeinpoly(args) -> int:
    if args.symbolic:
        if args.J > MAX_SYMBOLIC_J:
            raise ValueError(f"--J must be at most {MAX_SYMBOLIC_J} for --symbolic, "
                             f"got {args.J}")
        poly = a_pm_symbolic(args.J, 1 if args.sign == "+" else -1)
        terms = {"*".join(f"x{j}" for j in sorted(s)) or "1": str(c)
                 for s, c in poly.coeffs}
        print(json.dumps(terms, indent=2))
        return 0
    xs = _parse_ints(args.x)
    print(a_pm(args.J, 1 if args.sign == "+" else -1, xs))
    return 0


def _cmd_closedform(args) -> int:
    alphas = _parse_ints(args.alpha)
    params = family_params(args.kind, args.n, args.k, args.J, alphas)
    if args.verify or args.explore:
        # every generator index occurs in the n >= 1 half twists
        dim = family_length(args.kind, params) - 2 * args.k
        if dim > MAX_FAMILY_DIMENSION:
            raise ValueError(f"family word too large: Seifert dimension "
                             f"{dim} > {MAX_FAMILY_DIMENSION}")
    fn = sign_null_b if args.kind == "b" else sign_null_c
    out: dict = {}
    try:
        sn = fn(args.n, args.k, args.J, alphas)
        out["sign"] = sn.sign
        out["null"] = sn.null
    except FormulaNotEstablished as exc:
        out["closed_form"] = f"not established: {exc}"
        if not args.explore:
            print(json.dumps(out, indent=2))
            return 1
    try:
        out["det"] = str(family_det_closed_form(args.kind, args.n, args.k,
                                                args.J, alphas))
    except FormulaNotEstablished:
        out["det"] = None
    if args.verify or args.explore:
        word = family_b(params) if args.kind == "b" else family_c(params)
        sign, null = signature_nullity(word)
        out["direct"] = {"sign": sign, "null": null}
        if "sign" in out and out["sign"] is not None:
            out["verified"] = (out["sign"], out["null"]) == (sign, null)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_skein(args) -> int:
    for name, value in (("trials", args.trials), ("maxlen", args.maxlen)):
        if value < 0:
            raise ValueError(f"--{name} must be nonnegative, got {value}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    relations = {"conway": RelationSpec.conway, "b2": RelationSpec.delta3_order4,
                 "b3": RelationSpec.delta3sq_order4}
    spec = relations[args.relation]() if args.relation in relations else None
    if spec:
        if args.strands < spec.twist.strands:
            raise ValueError(f"--strands must be at least {spec.twist.strands} for "
                             f"--relation {args.relation}, got {args.strands}")
        # the letters appended before the last Conway potential: a twist per
        # coefficient after the first.  The determinant form steps further but
        # takes `link_det`'s integer Burau matrix, milliseconds at these lengths.
        letters = args.maxlen + (len(spec.coefficients) - 1) * len(spec.twist.letters)
        _check_word_size(letters, args.strands)
        # a trial costs about the square of its word size (conway: 0.13 ms
        # at size 20, 2.4 ms at 200, 22 ms at 750, 11 s at 7000; b2: 2.6 s
        # at 3500), so all trials together may cost about one word at the
        # size limit
        size = letters * (args.strands - 1)
        if args.trials * size * size > MAX_WORD_SIZE ** 2:
            raise ValueError(f"too many trials for the word size: {args.trials} "
                             f"trials x {size}^2 > {MAX_WORD_SIZE}^2")
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        if spec is None:
            s = rng.randint(0, 3)
            v0 = [[random_laurent(rng) for _ in range(s)] for _ in range(s)]
            u = [[random_laurent(rng) for _ in range(2)] for _ in range(s)]
            ustar = [[random_laurent(rng) for _ in range(s)] for _ in range(2)]
            w = [[random_laurent(rng) for _ in range(2)] for _ in range(2)]
            residual = block_identity_residual(v0, u, w, ustar)
            if not residual.is_zero():
                failures += 1
                print(f"trial {trial}: nonzero block residual {residual}")
            continue
        word = random_braid(rng, args.strands, args.maxlen)
        if not relation_residual(word, spec).is_zero():
            failures += 1
            print(f"trial {trial}: nonzero residual on braid "
                  f"[{word.to_text()}] in B_{word.strands}")
        elif not det_relation_check(word, spec).is_zero():
            failures += 1
            print(f"trial {trial}: nonzero det residual on braid "
                  f"[{word.to_text()}]")
    print(f"{args.trials - failures}/{args.trials} residuals vanished")
    return 1 if failures else 0


def _cmd_prohibit(args) -> int:
    if args.mode == "theorem11":
        params = CurveParams(n=args.n, k=args.k, r=args.r, J=args.J,
                             lam=args.lam, lam_odd=args.lam_odd,
                             lam_even=args.lam_even)
        report = verdict_curve(params, args.lam_plus, args.lam_minus)
    else:
        report = verdict_degree9(args.alpha, args.beta, args.gamma,
                                 m_curve=args.m_curve,
                                 assume_lemma23=args.assume_lemma23)
    print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.verdict == "admissible" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linksig",
        description="exact braid-closure invariants and curve prohibitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="all invariants of one braid closure")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True,
                   help='letters like "1,2,-1" (sign = crossing sign)')
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("family", help="print a parametric family word")
    p.add_argument("kind", choices=["b", "c"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--alpha", required=True, help='twists like "1,1,1"')
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("splice", help="evaluate a splice diagram from JSON")
    p.add_argument("action", nargs="?", default="eval", choices=["eval"])
    p.add_argument("--file", required=True)
    p.add_argument("--multivariable", action="store_true")
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("skeinpoly", help="the cyclic-system values a_J^+-")
    p.add_argument("action", nargs="?", default="a", choices=["a"])
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--sign", choices=["+", "-"], required=True)
    p.add_argument("--x", default="", help='integers like "1,2,1"')
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=_cmd_skeinpoly)

    p = sub.add_parser("closedform", help="closed-form family signatures")
    p.add_argument("kind", choices=["b", "c"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--J", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--verify", action="store_true",
                   help="run the direct matrix computation alongside")
    p.add_argument("--explore", action="store_true",
                   help="compute directly when no closed form is established")
    p.set_defaults(func=_cmd_closedform)

    p = sub.add_parser("skein", help="randomized verification of the relations")
    p.add_argument("action", nargs="?", default="verify", choices=["verify"])
    p.add_argument("--relation", choices=["conway", "b2", "b3", "blocks"],
                   required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strands", type=int, default=3)
    p.add_argument("--maxlen", type=int, default=10)
    p.set_defaults(func=_cmd_skein)

    p = sub.add_parser("prohibit", help="curve prohibition reports")
    modes = p.add_subparsers(dest="mode", required=True)
    t = modes.add_parser("theorem11")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--r", type=int, default=0)
    t.add_argument("--J", type=int, default=None)
    t.add_argument("--lambda", dest="lam", type=int, required=True)
    t.add_argument("--lambda-odd", dest="lam_odd", type=int, required=True)
    t.add_argument("--lambda-even", dest="lam_even", type=int, required=True)
    t.add_argument("--lambda-plus", dest="lam_plus", type=int, default=None)
    t.add_argument("--lambda-minus", dest="lam_minus", type=int, default=None)
    t.set_defaults(func=_cmd_prohibit)
    d = modes.add_parser("degree9")
    d.add_argument("--alpha", type=int, required=True)
    d.add_argument("--beta", type=int, required=True)
    d.add_argument("--gamma", type=int, required=True)
    d.add_argument("--m-curve", action="store_true")
    d.add_argument("--assume-lemma23", action="store_true")
    d.set_defaults(func=_cmd_prohibit)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; bad input prints a JSON error on stderr, exit 2."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a list like "-1,2" for an option: join it to its option
    for i in reversed(range(len(argv) - 1)):
        value = argv[i + 1]
        if (argv[i] in ("--word", "--x", "--alpha")
                and value[:1] == "-" and value[1:2].isdigit()):
            argv[i:i + 2] = [f"{argv[i]}={value}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
