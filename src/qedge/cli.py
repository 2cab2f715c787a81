"""Command-line front end: curve sweeps, asymptotes, verification suites, Gram dumps.

Exit codes: 0 success, 1 usage error, 2 partial failure (some rows errored),
3 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import logging
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__, verify
from .asymptotics import (
    DegeneratePadeError,
    NotTabulatedError,
    estimate_low_order_coeffs,
    large_d_limit,
    p0_known,
    p0_via_integral,
    p0_via_primitive,
)
from .discrimination import success_curve
from .gram import _gram_blocks, dump_gram_csv, rescale_gram

__all__ = ["main", "parse_n_spec"]

_CSV_HEADER = "N,d,scenario,method,p_success,gap,status"

# Thread-count symbols of the OpenBLAS bundled in the numpy wheel (its
# 64-bit-integer build), "%s" being "set" or "get".
_OPENBLAS_THREADS = "scipy_openblas_%s_num_threads64_"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise _UsageError(message)


def parse_n_spec(spec: str) -> list[int]:
    """Parse 'start:stop:step' segments joined by commas into a sorted N list.

    Stops are inclusive; 'start:stop' implies step 1 and a bare integer is a
    single value.  Example: '2:18:2,22:198:4' reproduces the 54-point grid.
    """
    values: list[int] = []
    if not spec.strip():
        raise _UsageError("empty N specification")
    for segment in spec.split(","):
        parts = segment.strip().split(":")
        try:
            nums = [int(p) for p in parts]
        except ValueError as exc:
            raise _UsageError(f"bad N segment {segment!r}") from exc
        if len(nums) == 1:
            values.append(nums[0])
        elif len(nums) in (2, 3):
            start, stop = nums[0], nums[1]
            step = nums[2] if len(nums) == 3 else 1
            if step <= 0 or stop < start:
                raise _UsageError(f"bad N segment {segment!r}")
            values.extend(range(start, stop + 1, step))
        else:
            raise _UsageError(f"bad N segment {segment!r}")
    if any(v < 1 for v in values):
        raise _UsageError("N values must be >= 1")
    out = sorted(set(values))
    if not out:
        raise _UsageError("empty N specification")
    return out


def _dimension(text: str) -> int:
    d = int(text)
    if d < 2:
        raise argparse.ArgumentTypeError(f"d must be >= 2, got {d}")
    return d


def _gap_tol(text: str) -> float:
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"gap tolerance must be positive and finite, got {text}")
    return tol


def _build_parser() -> _Parser:
    parser = _Parser(prog="qedge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qedge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="success probability vs string length")
    curve.add_argument("--scenario", choices=("unknown", "known"), default="unknown")
    curve.add_argument("--d", type=_dimension, default=2)
    curve.add_argument("--n", required=True, help="N range spec, e.g. 2:18:2,22:198:4")
    curve.add_argument("--method", choices=("srm", "sdp"), default="srm")
    curve.add_argument("--gap-tol", type=_gap_tol, default=1e-8)
    curve.add_argument("--out", default=None)
    curve.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    curve.add_argument("--verbose", action="store_true")

    asym = sub.add_parser("asymptote", help="limiting success probabilities for one d")
    asym.add_argument("--d", type=_dimension, required=True)
    asym.add_argument("--estimate-coeffs", action="store_true",
                      help="add numeric low-order series-coefficient estimates")
    asym.add_argument("--out", default=None)

    check = sub.add_parser("verify", help="run a property suite of qedge.verify")
    check.add_argument("suite", choices=(*verify.SUITES, "all"))
    check.add_argument("--verbose", action="store_true",
                       help="log each verified N of the holevo suite to stderr")

    dump = sub.add_parser("gram-dump", help="dump one Gram block as CSV (debug)")
    dump.add_argument("--scenario", choices=("unknown", "known"), default="unknown")
    dump.add_argument("--d", type=_dimension, default=2)
    dump.add_argument("--n", type=int, required=True)
    dump.add_argument("--block", type=int, required=True,
                      help="irrep lam (unknown) or ntilde0 (known)")
    dump.add_argument("--rescaled", action="store_true")
    dump.add_argument("--out", default=None)
    return parser


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_curve(args) -> int:
    n_values = parse_n_spec(args.n)
    rows = success_curve(args.scenario, args.d, n_values, args.method, gap_tol=args.gap_tol)
    if args.verbose:
        for row in rows:
            print(
                f"# N={row.N} p={row.p_success:.12g} gap={row.gap:.3g} "
                f"passes={row.iterations} {row.status}",
                file=sys.stderr,
            )
    if args.fmt == "csv":
        buf = io.StringIO()
        buf.write(_CSV_HEADER + "\n")
        for row in rows:
            buf.write(
                f"{row.N},{row.d},{row.scenario},{row.method},"
                f"{row.p_success:.12g},{row.gap:.12g},{row.status}\n"
            )
        _write_output(buf.getvalue(), args.out)
    else:
        doc = {
            "config": {
                "command": "curve", "scenario": args.scenario, "d": args.d,
                "n_values": n_values, "method": args.method, "gap_tol": args.gap_tol,
                "format": args.fmt, "deterministic": True,   # no RNG anywhere
                "version": __version__,
            },
            "rows": [
                {"N": row.N, "d": row.d, "scenario": row.scenario, "method": row.method,
                 "p_success": row.p_success, "gap": row.gap, "status": row.status,
                 "iterations": row.iterations}
                for row in rows
            ],
        }
        _write_output(json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n", args.out)
    return 0 if all(row.status == "ok" for row in rows) else 2


def _cmd_asymptote(args) -> int:
    report: dict = {"d": args.d, "large_d": large_d_limit(args.d)}
    report["p0_known"] = p0_known(args.d)
    try:
        integral = p0_via_integral(args.d)
        primitive = p0_via_primitive(args.d)
        report["p0_pade_integral"] = integral.value
        report["p0_pade_primitive"] = primitive.value
        report["error_estimates"] = {
            "integral_spread": integral.error,
            "primitive_spread": primitive.error,
            "cross_route_half_spread": abs(integral.value - primitive.value) / 2.0,
        }
    except (NotTabulatedError, DegeneratePadeError) as exc:
        report["p0_pade_integral"] = None
        report["p0_pade_primitive"] = None
        report["error_estimates"] = None
        report["reason"] = str(exc)
    if args.estimate_coeffs:
        report["coefficient_estimates"] = [
            {"r": est.r, "value": est.value, "error": est.error}
            for est in estimate_low_order_coeffs(args.d, r_max=3)
        ]
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_gram_dump(args) -> int:
    (g,) = _gram_blocks(args.scenario, args.n, args.d, [args.block])
    if args.rescaled:
        g = rescale_gram(g)   # ValueError (exit 1) for a known-unknown block
    buf = io.StringIO()
    dump_gram_csv(g, buf)
    _write_output(buf.getvalue(), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="# %(message)s")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    any_failed = False
    for name in names:
        res = verify.SUITES[name]()
        status = "ok" if res.failed == 0 else "FAILED"
        print(f"{name}: {res.passed} passed, {res.failed} failed [{status}]")
        if res.failed:
            any_failed = True
            print(f"  first counterexample: {res.first}")
    return 3 if any_failed else 0


def _openblas_thread_controls():
    """(set, get) thread-count functions of each OpenBLAS bundled with numpy that is found."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            set_threads = getattr(lib, _OPENBLAS_THREADS % "set")
            get_threads = getattr(lib, _OPENBLAS_THREADS % "get")
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        yield set_threads, get_threads


def _pin_blas_threads() -> None:
    """Run numpy's bundled OpenBLAS on one thread, unless OPENBLAS_NUM_THREADS is set.

    The blocks are small: more BLAS threads only add synchronisation, which
    makes an SDP sweep about twice as slow on two cores.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for set_threads, _ in _openblas_thread_controls():
        set_threads(1)


def main(argv: Optional[list[str]] = None) -> int:
    _pin_blas_threads()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "curve":
            return _cmd_curve(args)
        if args.command == "asymptote":
            return _cmd_asymptote(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gram-dump":
            return _cmd_gram_dump(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NotTabulatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
