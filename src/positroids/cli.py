"""Command-line surface: conversions between representations, quotient
checks, cyclic shifts, enumeration, and the bundled known-answer suite.

Exit codes: 0 for success or a true verdict, 1 for a false verdict (or any
failing known-answer check), 2 for malformed input or usage errors.  Every
payload option accepts inline text or JSON, a file path, or ``-`` for stdin.

``convert`` pivots on the decorated permutation: each source becomes one
(``_to_dp``), and each target is derived from it, except that a matroid or
LPM converted to a matroid is printed as parsed, positroid or not.
``enumerate`` takes its kinds and default bounds from
``enumeration.CENSUS_KINDS``, which ``census_records`` checks before the
``--out`` file is opened.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .arrows import ccw_arrows, cw_arrows
from .decorated import DecoratedPermutation, GrassmannNecklace
from .enumeration import CENSUS_KINDS, census_records
from .lpm import Lpm, lpm_bases, lpm_quotient_greedy
from .matroids import Matroid, positroid_of
from .quotients import (
    QuotientVerdict,
    is_quotient_of_uniform,
    is_quotient_rank,
    recover_shift_set,
)
from .reference import run_reference_examples

KINDS = ("dp", "necklace", "matroid", "lpm")


def _payload(value: str) -> str:
    if value == "-":
        return sys.stdin.read().strip()
    stripped = value.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return stripped
    try:
        if os.path.isfile(value):
            with open(value) as fh:
                return fh.read().strip()
    except OSError:
        pass
    return stripped


def _from_json(cls, payload: str):
    """cls.from_json of a JSON object, naming the payload when it is not JSON
    and the field when one is missing."""
    try:
        obj = json.loads(payload)
    except json.JSONDecodeError:
        raise ValueError(f"payload {payload!r} is neither JSON nor an existing file") from None
    if not isinstance(obj, dict):
        raise ValueError("payload must be a JSON object")
    try:
        return cls.from_json(obj)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None


def _parse_dp(payload: str) -> DecoratedPermutation:
    payload = payload.strip()
    if payload.startswith(("{", "[")):
        return _from_json(DecoratedPermutation, payload)
    return DecoratedPermutation.from_text(payload)


def _parse_freeze(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(int(tok) for tok in text.split(","))


def _family(kind: str, payload: str) -> Matroid:
    """The basis family of a matroid or LPM payload, positroid or not."""
    if kind == "matroid":
        return _from_json(Matroid, payload)
    return lpm_bases(_from_json(Lpm, payload))


def _to_dp(kind: str, payload: str) -> DecoratedPermutation:
    """The decorated permutation of a payload of any kind: the pivot of
    ``convert``.  A necklace must satisfy the axioms, and a matroid or LPM
    must be a positroid."""
    if kind == "dp":
        return _parse_dp(payload)
    if kind == "necklace":
        return DecoratedPermutation.from_necklace(_from_json(GrassmannNecklace, payload))
    m = _family(kind, payload)
    if not m.is_positroid():
        raise ValueError("matroid is not a positroid; no necklace form exists")
    return DecoratedPermutation.from_necklace(m.grassmann_necklace())


def _emit_verdict(verdict: QuotientVerdict, as_json: bool, label: str) -> int:
    if as_json:
        print(json.dumps(verdict.to_json()))
    else:
        print(f"{label}: {'yes' if verdict.is_quotient else 'no'}")
        if verdict.witness is not None:
            print(f"witness: {json.dumps(verdict.witness)}")
    return 0 if verdict.is_quotient else 1


def _cmd_convert(args) -> int:
    payload = _payload(args.input)
    if args.to == "matroid" and args.source in ("matroid", "lpm"):
        print(json.dumps(_family(args.source, payload).to_json()))
        return 0
    dp = _to_dp(args.source, payload)
    if args.to == "dp":
        print(json.dumps(dp.to_json()) if args.json else dp.to_text())
    elif args.to == "necklace":
        print(json.dumps(dp.necklace.to_json()))
    elif args.to == "matroid":
        print(json.dumps(positroid_of(dp).to_json()))
    else:
        candidate = Lpm(dp.n, dp.necklace.entries[0], dp.conecklace.entries[0])
        if lpm_bases(candidate).bases != positroid_of(dp).bases:
            raise ValueError("positroid is not a lattice path matroid")
        print(json.dumps(candidate.to_json()))
    return 0


def _cmd_check_quotient(args) -> int:
    m = _from_json(Matroid, _payload(args.m))
    n = _from_json(Matroid, _payload(args.n))
    for label, mat in (("--m", m), ("--n", n)):
        if not mat.is_valid():
            raise ValueError(f"{label} is not a matroid (exchange axiom fails)")
    return _emit_verdict(is_quotient_rank(m, n), args.json, "quotient")


def _cmd_check_uniform(args) -> int:
    dp = _parse_dp(_payload(args.dp))
    return _emit_verdict(is_quotient_of_uniform(dp, args.k), args.json, "quotient of uniform")


def _cmd_check_lpm(args) -> int:
    sub = _from_json(Lpm, _payload(args.sub))
    sup = _from_json(Lpm, _payload(args.sup))
    return _emit_verdict(lpm_quotient_greedy(sub, sup), args.json, "lpm quotient")


def _cmd_shift(args) -> int:
    dp = _parse_dp(_payload(args.dp))
    shifted = dp.cyclic_shift(_parse_freeze(args.freeze))
    print(json.dumps(shifted.to_json()) if args.json else shifted.to_text())
    return 0


def _cmd_recover_shift(args) -> int:
    pi = _parse_dp(_payload(args.pi))
    sigma = _parse_dp(_payload(args.sigma))
    recovered = recover_shift_set(pi, sigma, verify_quotient=True)
    if args.json:
        print(json.dumps({"A": sorted(recovered)}))
    else:
        print("A = {" + ",".join(map(str, sorted(recovered))) + "}")
    return 0


def _cmd_arrows(args) -> int:
    dp = _parse_dp(_payload(args.dp))
    arrow_set = cw_arrows(dp) if args.kind == "cw" else ccw_arrows(dp)
    print(json.dumps(arrow_set.to_json()))
    return 0


def _cmd_enumerate(args) -> int:
    default = CENSUS_KINDS[args.what][0]
    env = os.environ.get("POSITROID_MAX_N")
    if env is not None and not (env.strip().isdecimal() and int(env) > 0):
        raise ValueError(f"POSITROID_MAX_N must be a positive integer, got {env!r}")
    bound = default if env is None else int(env)
    records = census_records(args.what, args.k, args.n, max_n=bound)
    if args.n > default:
        print(
            f"warning: n={args.n} exceeds the supported bound {default}; "
            f"proceeding because POSITROID_MAX_N={env} (this may take very long)",
            file=sys.stderr,
        )
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    try:
        for record in records:
            out.write(json.dumps(record) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_verify_paper(args) -> int:
    report = run_reference_examples()
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "elapsed_seconds": report.elapsed,
                    "results": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "expected": r.expected,
                            "actual": r.actual,
                        }
                        for r in report.results
                    ],
                }
            )
        )
    else:
        for r in report.results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
            if not r.passed:
                print(f"      expected: {r.expected}")
                print(f"      actual:   {r.actual}")
        passed = sum(r.passed for r in report.results)
        print(f"{passed}/{len(report.results)} checks passed in {report.elapsed:.3f}s")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="positroids",
        description="Positroid representations, quotient criteria, and exhaustive censuses.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[common], help="convert between representations")
    p.add_argument("--from", dest="source", choices=KINDS, required=True)
    p.add_argument("--to", dest="to", choices=KINDS, required=True)
    p.add_argument("--input", required=True, help="payload, file path, or - for stdin")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("check-quotient", parents=[common], help="rank-oracle quotient check")
    p.add_argument("--m", required=True, help="candidate quotient, matroid JSON")
    p.add_argument("--n", required=True, help="ambient matroid, matroid JSON")
    p.set_defaults(fn=_cmd_check_quotient)

    p = sub.add_parser("check-uniform", parents=[common], help="CW-arrow check against U_{k,n}")
    p.add_argument("--dp", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_check_uniform)

    p = sub.add_parser("check-lpm-quotient", parents=[common], help="lattice path matroid check")
    p.add_argument("--sub", required=True, help="candidate quotient, LPM JSON")
    p.add_argument("--super", dest="sup", required=True, help="ambient LPM JSON")
    p.set_defaults(fn=_cmd_check_lpm)

    p = sub.add_parser("shift", parents=[common], help="cyclic shift freezing given positions")
    p.add_argument("--dp", required=True)
    p.add_argument("--freeze", default="", help="comma-separated positions, may be empty")
    p.set_defaults(fn=_cmd_shift)

    p = sub.add_parser("recover-shift", parents=[common], help="shift set of an elementary pair")
    p.add_argument("--pi", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(fn=_cmd_recover_shift)

    p = sub.add_parser("arrows", parents=[common], help="emit CW or CCW arrows as intervals")
    p.add_argument("--dp", required=True)
    p.add_argument("--kind", choices=("cw", "ccw"), default="cw")
    p.set_defaults(fn=_cmd_arrows)

    p = sub.add_parser("enumerate", parents=[common], help="write a census as JSON lines")
    p.add_argument("--what", choices=tuple(CENSUS_KINDS), required=True)
    p.add_argument("--k", type=int, default=None, help="rank; every rank when omitted")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="output path, or - for stdout")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify-paper", parents=[common], help="run the known-answer suite")
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the consumer closed the pipe (e.g. | head); not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
