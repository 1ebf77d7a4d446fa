"""Command-line front end.

Subcommands mirror the library surface: braid invariants, the parametric
families, splice-diagram evaluation, the cyclic-polynomial systems, the
closed-form signatures, randomized verification of the generalized skein
relations, and the curve prohibition reports.  Each handler imports the
layers it uses when it runs, so a process loads only its command's modules:
`linksig invariants` loads braid, gaussian, intmatrix, laurent and seifert.

`main` is the one writer: a handler returns its answer and exit code, and
`main` prints the answer, a text as it is and anything else as indented
JSON (a value JSON has no type for, such as a `GaussianInteger`, as its
string), or prints the one-line JSON error of a refused request on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys


#: the largest `seifert._conway_size`, max(letters, strands - 1) x
#: (strands - 1), that a Conway potential is started for (`invariants`
#: counts the letters after the far-pair pass of its report): near the bound a
#: seeded random word takes 0.4-1.6 s, and the worst case known, 1,-2
#: repeated 2000 times on 3 strands, 6.1-6.3 s a process (the cost model is
#: in that docstring; the size counts letters, not coefficient bits).
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
#: most strands.  With n = 1, k = 77 (dimension about 11800) `--verify` took
#: 10.8-12.3 s for `family_b` and 10.2-12.3 s for `family_c`; earlier, k = 120
#: (28685) took 66 s and n = 19, k = 25 (24180) 3.8 s.
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
#: bound squared.  `omega` costs about D x (numerator passes + divisions)
#: list steps, each factor's power is below D, and along each family
#: D^2 x divisions grows with that cost.  Just under the bound `omega` took
#: 1.1-1.6 s (a whole `splice eval` 5.4-6.1 s, most of it the linking walk)
#: for `ring_family_diagram(3, [1, -2] * 538)` (D = 6449, 539 divisions),
#: 1.0-1.3 s (2.6-3.3 s) for `[2, -2] * 352`, 0.8-0.9 s (3.4-3.7 s) for
#: `[1, 2] * 444`, 0.8-1.1 s (1.6-2.0 s) for `[2] * 537`, 0.3 s (0.4 s) for
#: `[40] * 81` and 0.04-0.06 s (0.16-0.20 s) for the (2, 53031) torus knot
#: (D = 106063), three runs in process; `[3] * 200` takes 0.5-0.6 s as a
#: whole process (Python 3.11 on a shared 2-vCPU VM).  So the bound stops
#: `omega` well under a quarter of a minute.
MAX_SPLICE_DEGREE = 150_000

#: the largest vertices x arrowheads (`SpliceDiagram._linking_size`) that
#: `splice eval` walks, at about 2 us and 6 bytes a pair: a whole eval of
#: `ring_family_diagram(3, [1] * 1600)` (4804 x 1601 = 7.7e6) took 13-17 s and
#: 68 MB, so the bound stops the walk near a quarter of a minute.
MAX_SPLICE_LINKING = 7_000_000

#: the largest k that `closedform` answers.  Its determinant has up to
#: 2(k - 1) bits (4^(k-1) for n = 2 mod 4), and CPython 3.11 writes an
#: integer in decimal in quadratic time: k = 800000 took 4.2 s,
#: k = 1000000 6.5 s and k = 1600000 16.5 s, so the bound keeps the output
#: under about 7 s, with room for the a_J factor of a long twist list.
MAX_CLOSEDFORM_K = 1_000_000

#: the most jump counts that `prohibit theorem11` lists
#: (`prohibit._search_size`), at about 1 us and 120 bytes of peak memory
#: each: lambda = lambda_odd = lambda_even = 2000000 with n = 1, k = 3 lists
#: 1000000 of them in 0.95 s, 137 MB and 14 MB of JSON.  Memory is what this
#: bound keeps well under 200 MB, as for `MAX_FAMILY_LETTERS`.
MAX_FEASIBLE_JUMPS = 1_000_000


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def _check_word_size(letters: int, strands: int, note: str = "") -> int:
    """The word's `seifert._conway_size`, refused over `MAX_WORD_SIZE`;
    `note` ends the message."""
    from .seifert import _conway_size

    size, gaps = _conway_size(letters, strands), strands - 1
    if size > MAX_WORD_SIZE:
        counted = (f"{letters} letters" if letters >= gaps else
                   f"{gaps} strand gaps (more than the {letters} letters)")
        raise ValueError(f"word too large: {counted} x {gaps} strand gaps = "
                         f"{size} > {MAX_WORD_SIZE}{note}")
    return size


def _cmd_invariants(args) -> tuple[object, int]:
    from .braid import BraidWord, _cancel_far_pairs
    from .seifert import _conway_size, invariants_report

    word = BraidWord.from_text(args.strands, args.word)
    # the strand gaps alone first: they bound the size whatever the
    # letters, and the cancelling pass keeps one stack a strand
    if _conway_size(0, word.strands) > MAX_WORD_SIZE:
        _check_word_size(len(word.letters), word.strands)
    # the report takes the word with its far pairs cancelled, so its
    # letters are the ones that cost
    _check_word_size(len(_cancel_far_pairs(word).letters), word.strands,
                     ", letters counted after cancelling far pairs")
    return invariants_report(word), 0


def _cmd_family(args) -> tuple[object, int]:
    from .braid import family_b, family_c, family_length, family_params

    params = family_params(args.kind, args.n, args.k, args.J, _parse_ints(args.alpha))
    letters = family_length(args.kind, params)
    if letters > MAX_FAMILY_LETTERS:
        raise ValueError(f"family word too large: {letters} letters > "
                         f"{MAX_FAMILY_LETTERS}")
    word = family_b(params) if args.kind == "b" else family_c(params)
    return word.to_text(), 0


def _cmd_splice(args) -> tuple[object, int]:
    from .laurent import ExactDivisionError
    from .splice import SpliceDiagram

    with open(args.file, encoding="utf-8") as fh:
        diagram = SpliceDiagram.from_json(json.load(fh))
    vertices, arrowheads = diagram._linking_size()
    if vertices * arrowheads > MAX_SPLICE_LINKING:
        raise ValueError(f"splice diagram too large: {vertices} vertices x "
                         f"{arrowheads} arrowheads > {MAX_SPLICE_LINKING}")
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
        out = {"omega": omega, "omega_coeffs": omega.to_json()}
    out["det"] = omega.eval_at_i()
    return out, 0


def _cmd_skeinpoly(args) -> tuple[object, int]:
    from .skeinpoly import a_pm, a_pm_symbolic

    sign = 1 if args.sign == "+" else -1
    if not args.symbolic:
        return a_pm(args.J, sign, _parse_ints(args.x)), 0
    if args.J > MAX_SYMBOLIC_J:
        raise ValueError(f"--J must be at most {MAX_SYMBOLIC_J} for --symbolic, "
                         f"got {args.J}")
    poly = a_pm_symbolic(args.J, sign)
    return {"*".join(f"x{j}" for j in sorted(s)) or "1": c
            for s, c in poly.coeffs}, 0


def _cmd_closedform(args) -> tuple[object, int]:
    from .braid import family_b, family_c, family_length, family_params
    from .closedforms import FormulaNotEstablished, sign_null_b, sign_null_c
    from .seifert import signature_nullity
    from .skeinpoly import family_det_closed_form

    if args.k > MAX_CLOSEDFORM_K:
        raise ValueError(f"--k must be at most {MAX_CLOSEDFORM_K}, got {args.k}")
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
            return out, 1
    try:
        out["det"] = family_det_closed_form(args.kind, args.n, args.k, args.J,
                                            alphas)
    except FormulaNotEstablished:
        out["det"] = None
    if args.verify or args.explore:
        word = family_b(params) if args.kind == "b" else family_c(params)
        sign, null = signature_nullity(word)
        out["direct"] = {"sign": sign, "null": null}
        if "sign" in out and out["sign"] is not None:
            out["verified"] = (out["sign"], out["null"]) == (sign, null)
    return out, 0


def _cmd_skein(args) -> tuple[object, int]:
    import random

    from .genskein import (RelationSpec, block_identity_residual,
                           det_relation_check, random_braid, random_laurent,
                           relation_residual)

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
        # a trial costs at most about the square of its word size (on
        # 3 strands, conway: 0.15 ms at size 20, 0.6-1.2 ms at 200, 4-5 ms
        # at 750, 1.0 s at 7000; b2: 0.23 s at 3500), so all trials together
        # may cost about one word at the size limit
        size = _check_word_size(letters, args.strands)
        if args.trials * size * size > MAX_WORD_SIZE ** 2:
            raise ValueError(f"too many trials for the word size: {args.trials} "
                             f"trials x {size}^2 > {MAX_WORD_SIZE}^2")
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.trials):
        if spec is None:
            s = rng.randint(0, 3)
            v0 = [[random_laurent(rng) for _ in range(s)] for _ in range(s)]
            u = [[random_laurent(rng) for _ in range(2)] for _ in range(s)]
            ustar = [[random_laurent(rng) for _ in range(s)] for _ in range(2)]
            w = [[random_laurent(rng) for _ in range(2)] for _ in range(2)]
            residual = block_identity_residual(v0, u, w, ustar)
            if not residual.is_zero():
                failures.append(f"trial {trial}: nonzero block residual {residual}")
            continue
        word = random_braid(rng, args.strands, args.maxlen)
        if not relation_residual(word, spec).is_zero():
            failures.append(f"trial {trial}: nonzero residual on braid "
                            f"[{word.to_text()}] in B_{word.strands}")
        elif not det_relation_check(word, spec).is_zero():
            failures.append(f"trial {trial}: nonzero det residual on braid "
                            f"[{word.to_text()}]")
    summary = f"{args.trials - len(failures)}/{args.trials} residuals vanished"
    return "\n".join([*failures, summary]), 1 if failures else 0


def _cmd_prohibit(args) -> tuple[object, int]:
    from .prohibit import CurveParams, _search_size, verdict_curve, verdict_degree9

    if args.mode == "theorem11":
        params = CurveParams(n=args.n, k=args.k, r=args.r, J=args.J,
                             lam=args.lam, lam_odd=args.lam_odd,
                             lam_even=args.lam_even)
        listed = _search_size(params, args.lam_plus, args.lam_minus)
        if listed > MAX_FEASIBLE_JUMPS:
            raise ValueError(f"jump search too large: {listed} feasible jump "
                             f"counts > {MAX_FEASIBLE_JUMPS}")
        report = verdict_curve(params, args.lam_plus, args.lam_minus)
    else:
        report = verdict_degree9(args.alpha, args.beta, args.gamma,
                                 m_curve=args.m_curve,
                                 assume_lemma23=args.assume_lemma23)
    return report.as_dict(), 0 if report.verdict == "admissible" else 1


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

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("kind", choices=["b", "c"])
    family.add_argument("--n", type=int, required=True)
    family.add_argument("--k", type=int, required=True)
    family.add_argument("--J", type=int, required=True)
    family.add_argument("--alpha", required=True, help='twists like "1,1,1"')

    p = sub.add_parser("family", parents=[family],
                       help="print a parametric family word")
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

    p = sub.add_parser("closedform", parents=[family],
                       help="closed-form family signatures")
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
    """Run one subcommand and print its answer; bad input prints a JSON error
    on stderr, exit 2."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a list like "-1,2" for an option: join it to its option
    for i in reversed(range(len(argv) - 1)):
        value = argv[i + 1]
        if (argv[i] in ("--word", "--x", "--alpha")
                and value[:1] == "-" and value[1:2].isdigit()):
            argv[i:i + 2] = [f"{argv[i]}={value}"]
    args = build_parser().parse_args(argv)
    try:
        answer, code = args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    # an exact answer may pass CPython's 4300-digit guard on int -> str, which
    # stays on for reading the input
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = answer if isinstance(answer, str) else json.dumps(
            answer, indent=2, default=str)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
