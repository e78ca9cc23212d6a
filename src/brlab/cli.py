"""Command-line interface: build tensors, run flattenings and ranks, emit
certificates and comparison tables.

Exit codes: 0 success, 2 usage error, 3 arithmetic/prime failure,
4 internal cross-check disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .binaryforms import restrict_matmul
from .bounds import (
    SOUND_EXACT_Q,
    bound_classical,
    bound_koszul,
    bound_matmul_restricted,
    compare_table,
    flattening_rank,
    formula_certificate,
)
from .errors import BadPrime, BrlabError, DivisionByZero, FormatError
from .rank_engine import ExactQ, MultiPrime
from .repcomb import (
    formula_range_validated,
    kernel_dim_formula,
    kernel_dim_pieri,
)
from .scalars import FieldTag, certification_primes, parse_natural
from .tensor import load_tensor, matmul_tensor, rank_one_tensor, save_tensor, tensor_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ARITHMETIC = 3
EXIT_CROSSCHECK = 4


def _natural_flag(minimum: int):
    """argparse type for an integer flag: ASCII decimal digits alone (the
    rule for numbers in files), at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = parse_natural(text)
        except FormatError:
            raise argparse.ArgumentTypeError(f"not a natural number: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _field_flag(*words: str):
    """argparse type for --field: one of `words`, or "fp:P" with P in ASCII
    decimal digits (the rule for "Fp:P" in files).

    Returns the word, or P as an int.  Whether P is prime is checked where
    the field is built, so a well-formed non-prime P is an arithmetic
    failure (exit 3) while a malformed flag is a usage error (exit 2).
    """
    def parse(text: str):
        if text in words:
            return text
        if text.startswith("fp:"):
            try:
                return parse_natural(text[3:])
            except FormatError:
                pass
        raise argparse.ArgumentTypeError(
            f"bad field {text!r} (want {', '.join(words)} or fp:P)")
    return parse


def _parse_strategy(spec: str | int | None):
    """Map a parsed --field flag to a rank strategy (None: the exact default)."""
    if spec is None:
        return None
    if spec == "q":
        return ExactQ()
    if spec == "multiprime":
        return MultiPrime()
    if spec == "fp":
        return MultiPrime((certification_primes()[0],))
    return MultiPrime((FieldTag.prime_field(spec).p,))


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _note(args: argparse.Namespace, message: str) -> None:
    if getattr(args, "verbose", False):
        print(message, file=sys.stderr)


def _summand_note(args: argparse.Namespace, summands: int, classes: int) -> None:
    _note(args, f"summands: {summands} in {classes} class{'' if classes == 1 else 'es'}")


def _show_note(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning (such as a wedge power outside the recommended
    range) as one "note:" line on stderr, without a source location."""
    print(f"note: {message}", file=sys.stderr)


def _parse_vector(text: str) -> list:
    return [tok.strip() for tok in text.split(",")]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_tensor(args: argparse.Namespace) -> int:
    if args.field in (None, "q"):
        field = FieldTag.rationals()
    else:
        field = FieldTag.prime_field(args.field)
    if args.kind == "matmul":
        t = matmul_tensor(args.m, args.n, args.l, field)
    elif args.kind == "rank-one":
        parse = field.parse
        t = rank_one_tensor(
            [parse(x) for x in _parse_vector(args.u)],
            [parse(x) for x in _parse_vector(args.v)],
            [parse(x) for x in _parse_vector(args.w)],
            field,
        )
    else:  # restrict
        t = restrict_matmul(args.m, args.n, args.l, field)
    _note(args, f"built tensor dims={list(t.dims)} nnz={t.nnz} field={t.field}")
    if args.out:
        save_tensor(t, args.out)
        print(json.dumps({"path": args.out, "dims": list(t.dims), "nnz": t.nnz}))
    else:
        print(json.dumps(tensor_to_json(t)))
    return EXIT_OK


def _rank_notes(args: argparse.Namespace, cert) -> None:
    fr = cert.flattening
    _note(args, f"{cert.rows}x{cert.cols} rank {cert.rank} "
                f"({cert.soundness}, {cert.timings_ms:.1f} ms, split {fr.split_ms:.1f} ms, "
                f"flatten {fr.flatten_ms:.1f} ms)")
    if cert.soundness == SOUND_EXACT_Q:
        n, f2, u = fr.block_classes, fr.settled_mod_2, fr.unsettled
        _note(args, f"exact-Q: {n} class{'' if n == 1 else 'es'}, {f2} settled mod 2, "
                    f"{n - f2 - u} mod p, {u} fell back")
    if fr.mirror_pairs:
        n = fr.mirror_pairs
        _note(args, f"mirror: {n} weight pair{'' if n == 1 else 's'}, {fr.mirror_fixed} fixed, "
                    f"nnz {fr.nnz_written} of {fr.nnz_whole}")
    else:
        _note(args, "mirror: none")
    _summand_note(args, fr.summands, fr.classes)


def _cmd_bound(args: argparse.Namespace) -> int:
    method = args.method
    strategy = _parse_strategy(args.field)

    if method in ("theorem1-formula", "lickteig-square"):
        if method == "lickteig-square":
            if args.n is None:
                print("lickteig-square needs --n", file=sys.stderr)
                return EXIT_USAGE
            cert = formula_certificate(method, args.n, args.n, args.n)
        else:
            if None in (args.m, args.n, args.l):
                print("theorem1-formula needs --m --n --l", file=sys.stderr)
                return EXIT_USAGE
            cert = formula_certificate(method, args.m, args.n, args.l)
        _emit(cert.to_json(), args.out)
        return EXIT_OK

    if method == "koszul-restricted":
        if None in (args.m, args.n, args.l):
            print("koszul-restricted needs --m --n --l", file=sys.stderr)
            return EXIT_USAGE
        cert = bound_matmul_restricted(args.m, args.n, args.l, strategy)
        _rank_notes(args, cert)
        _emit(cert.to_json(), args.out)
        return EXIT_OK

    # classical / strassen / koszul act on a tensor: from a file or matmul dims
    if args.tensor is not None:
        t = load_tensor(args.tensor)
        descriptor = None
    elif None not in (args.m, args.n, args.l):
        t = matmul_tensor(args.m, args.n, args.l)
        descriptor = {"m": args.m, "n": args.n, "l": args.l}
    else:
        print(f"method {method} needs --tensor FILE or --m --n --l", file=sys.stderr)
        return EXIT_USAGE

    if method == "classical":
        cert = bound_classical(t, strategy, descriptor=descriptor)
    elif method == "strassen":
        cert = bound_koszul(t, 1, strategy, descriptor=descriptor)
    else:  # koszul
        if args.p is None:
            print("koszul needs --p", file=sys.stderr)
            return EXIT_USAGE
        cert = bound_koszul(t, args.p, strategy, descriptor=descriptor)
    _rank_notes(args, cert)
    _emit(cert.to_json(), args.out)
    return EXIT_OK


def _cmd_kernel_dim(args: argparse.Namespace) -> int:
    m, n, p, l = args.m, args.n, args.p, args.l
    check = args.check
    doc: dict = {
        "m": m, "n": n, "p": p, "l": l,
        "validated_range": formula_range_validated(m, n, p),
    }
    values: dict[str, int] = {}
    if check in ("pieri", "both", "rank"):
        values["pieri"] = kernel_dim_pieri(m, n, p, l)
    if check in ("formula", "both", "rank"):
        values["formula"] = kernel_dim_formula(m, n, p, l)
    if check == "rank":
        t = matmul_tensor(m, n, l)
        fr = flattening_rank(t, p)  # exact over t's field, Q
        _note(args, f"flattening {fr.rows}x{fr.cols}, nnz={fr.nnz}")
        _summand_note(args, fr.summands, fr.classes)
        values["rank_based"] = fr.cols - fr.rank
        doc["source_dim"] = fr.cols
        doc["rank"] = fr.rank
        doc["rank_field"] = str(t.field)
    doc.update(values)
    distinct = set(values.values())
    doc["agree"] = len(distinct) <= 1
    _emit(doc, args.out)
    return EXIT_OK if doc["agree"] else EXIT_CROSSCHECK


def _cmd_table(args: argparse.Namespace) -> int:
    rows = compare_table(args.n_min, args.n_max)
    if args.json:
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    headers = ["n", "l", "classical", "strassen-era", "lickteig", "theorem1", "computed"]
    keys = ["n", "l", "classical", "strassen_era", "lickteig", "theorem1", "computed"]
    cells = [[str(row[k]) if row[k] is not None else "-" for k in keys] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for r in cells:
        print("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verbose", action="store_true",
                        help="progress notes on stderr")


_TENSOR_FIELD = _field_flag("q")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brlab",
        description="Certified border-rank lower bounds for 3-tensors "
                    "via exact wedge-power flattenings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tensor = sub.add_parser("tensor", help="construct a tensor and write it as JSON")
    t_sub = p_tensor.add_subparsers(dest="kind", required=True)

    t_mm = t_sub.add_parser("matmul", help="matrix multiplication tensor")
    t_mm.add_argument("--m", type=_natural_flag(1), required=True)
    t_mm.add_argument("--n", type=_natural_flag(1), required=True)
    t_mm.add_argument("--l", type=_natural_flag(1), required=True)
    t_mm.add_argument("--field", type=_TENSOR_FIELD, default=None,
                      help="q (default) or fp:P")
    t_mm.add_argument("--out", default=None)
    _add_common_flags(t_mm)
    t_mm.set_defaults(func=_cmd_tensor)

    t_r1 = t_sub.add_parser("rank-one", help="outer product of three vectors")
    t_r1.add_argument("--u", required=True, help="comma-separated values")
    t_r1.add_argument("--v", required=True)
    t_r1.add_argument("--w", required=True)
    t_r1.add_argument("--field", type=_TENSOR_FIELD, default=None)
    t_r1.add_argument("--out", default=None)
    _add_common_flags(t_r1)
    t_r1.set_defaults(func=_cmd_tensor)

    t_re = t_sub.add_parser(
        "restrict", help="matmul tensor with its first factor projected to "
                         "the multiplication summand")
    t_re.add_argument("--m", type=_natural_flag(1), required=True)
    t_re.add_argument("--n", type=_natural_flag(1), required=True)
    t_re.add_argument("--l", type=_natural_flag(1), default=1)
    t_re.add_argument("--field", type=_TENSOR_FIELD, default=None)
    t_re.add_argument("--out", default=None)
    _add_common_flags(t_re)
    t_re.set_defaults(func=_cmd_tensor)

    p_bound = sub.add_parser("bound", help="emit one bound certificate as JSON")
    p_bound.add_argument(
        "--method", required=True,
        choices=["classical", "strassen", "koszul", "koszul-restricted",
                 "theorem1-formula", "lickteig-square"])
    p_bound.add_argument("--p", type=_natural_flag(0), default=None)
    p_bound.add_argument("--tensor", default=None, help="tensor JSON file")
    p_bound.add_argument("--m", type=_natural_flag(1), default=None)
    p_bound.add_argument("--n", type=_natural_flag(1), default=None)
    p_bound.add_argument("--l", type=_natural_flag(1), default=None)
    p_bound.add_argument("--field", type=_field_flag("q", "fp", "multiprime"),
                         default=None, help="q | fp[:PRIME] | multiprime (default: exact)")
    p_bound.add_argument("--out", default=None)
    _add_common_flags(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_kd = sub.add_parser("kernel-dim", help="kernel dimension of the matmul "
                                             "wedge flattening, cross-checked")
    p_kd.add_argument("--m", type=_natural_flag(1), required=True)
    p_kd.add_argument("--n", type=_natural_flag(1), required=True)
    p_kd.add_argument("--p", type=_natural_flag(0), required=True)
    p_kd.add_argument("--l", type=_natural_flag(1), default=1)
    p_kd.add_argument("--check", choices=["pieri", "formula", "both", "rank"],
                      default="both")
    p_kd.add_argument("--out", default=None)
    _add_common_flags(p_kd)
    p_kd.set_defaults(func=_cmd_kernel_dim)

    p_table = sub.add_parser("table", help="closed-form comparison table")
    p_table.add_argument("--n-min", type=_natural_flag(1), required=True)
    p_table.add_argument("--n-max", type=_natural_flag(1), required=True)
    p_table.add_argument("--json", action="store_true")
    _add_common_flags(p_table)
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_note
            return args.func(args)
    except (BadPrime, DivisionByZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARITHMETIC
    except BrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
