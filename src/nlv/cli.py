"""Command-line workbench: one dispatcher over all package operations.

Every subcommand emits its numeric results together with a run manifest
(subcommand, full parameter set including seeds, tool version, wall-clock
runtime).  With --json the output is a single JSON object with sorted
keys, byte-identical across runs with the same argv apart from the
manifest's runtime field.  Exit codes: 0 success (budget-exceeded results
included), 1 domain error or a result that cannot reach stdout, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classical import ENUMERATION_CAP, classical_value
from .errors import NlvError, write_file
from .game import chsh_game, game_value, load_game, load_strategy
from .linalg import interleave
from .moments import density_check, load_matrices, moment_map, sample_moment_cloud
from .protocols import TwoBitMessage, epr_correlation_demo, superdense_decode, superdense_encode
from .quantum import (chsh_optimal_spec, entangled_lower_bound, load_spec, quantum_correlation,
                      save_spec)
from .seesaw import ITERS
from .synchronous import load_family, save_family, sync_value_lower_bound, tracial_correlation
from .tm import Halted, load_machine, run as tm_run


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it
    unchanged, and every parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="nlv",
        description="Nonlocal game values, measurement simulation, tracial "
                    "correlations, matrix moments, and a Turing machine interpreter.")
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    # The same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("value", help="score a strategy file against a game file")
    p.add_argument("--game", required=True)
    p.add_argument("--strategy", required=True)

    p = add_parser("classical", help="exact classical value by enumeration")
    p.add_argument("--game", required=True)
    p.add_argument("--cap", type=_positive_int, default=ENUMERATION_CAP)

    for name, what, out, default in (
            ("quantum-lb", "see-saw lower bound on the entangled value", "--spec-out",
             "quantum-lb-spec.json"),
            ("sync-lb", "lower bound on the synchronous entangled value", "--family-out", None)):
        p = add_parser(name, help=what)
        p.add_argument("--game", required=True)
        p.add_argument("--dim", type=_positive_int, required=True)
        p.add_argument("--restarts", type=_positive_int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--iters", type=_positive_int, default=ITERS)
        p.add_argument(out, default=default)

    p = add_parser("superdense", help="encode/decode a two-bit message")
    p.add_argument("--msg", required=True, metavar="IJ",
                   help="two characters from {1,2}, e.g. 21")

    p = add_parser("epr", help="perfect-correlation experiment")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--basis", choices=("coordinate", "horizontal"), default="coordinate")

    p = add_parser("moments", help="moment maps, clouds, and density estimates")
    msub = p.add_subparsers(dest="moments_command", required=True)
    m = msub.add_parser("map", parents=[common], help="moment vector of a matrix tuple file")
    m.add_argument("--n", type=_positive_int, required=True)
    m.add_argument("--d", type=_positive_int, required=True)
    m.add_argument("--matrices", required=True)
    m = msub.add_parser("cloud", parents=[common], help="sample a moment cloud to CSV")
    m.add_argument("--n", type=_positive_int, required=True)
    m.add_argument("--d", type=_positive_int, required=True)
    m.add_argument("--p", type=_positive_int, required=True)
    m.add_argument("--count", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--out", required=True)
    m = msub.add_parser("density", parents=[common], help="coverage of the large-dim cloud by the small one")
    m.add_argument("--n", type=_positive_int, required=True)
    m.add_argument("--d", type=_positive_int, required=True)
    m.add_argument("--p1", type=_positive_int, required=True)
    m.add_argument("--p2", type=_positive_int, required=True)
    m.add_argument("--eps", type=float, required=True)
    m.add_argument("--count1", type=_positive_int, default=400)
    m.add_argument("--count2", type=_positive_int, default=100)
    m.add_argument("--seed", type=int, required=True)

    p = add_parser("tm", help="Turing machine interpreter")
    tsub = p.add_subparsers(dest="tm_command", required=True)
    t = tsub.add_parser("run", parents=[common], help="run a machine file on a binary input")
    t.add_argument("--machine", required=True)
    t.add_argument("--input", default="", help="binary string (may be empty)")
    t.add_argument("--budget", type=_positive_int, required=True)
    t.add_argument("--trace", action="store_true")

    p = add_parser("demo-chsh", help="classical vs entangled value of the bundled game")
    p.add_argument("--completeness", type=_finite_float, default=None,
                   help="optional acceptance threshold to annotate, e.g. 0.6667")
    p.add_argument("--soundness", type=_finite_float, default=None,
                   help="optional rejection threshold to annotate, e.g. 0.3333")

    return parser


def _params(args):
    skip = ("json", "subcommand", "moments_command", "tm_command")
    return {key: value for key, value in sorted(vars(args).items()) if key not in skip}


def _run_value(args):
    game = load_game(Path(args.game).read_text())
    strategy = load_strategy(Path(args.strategy).read_text())
    return {"value": game_value(game, strategy)}


def _run_classical(args):
    game = load_game(Path(args.game).read_text())
    value, argmax = classical_value(game, cap=args.cap)
    return {"value": value, "A": list(argmax.alice), "B": list(argmax.bob)}


def _output_target(flag: str, path) -> None:
    """Refuse, before any work, an empty path, a directory or a file outside
    an existing directory; ``None`` asks for no file."""
    if path is None:
        return
    if not path:
        raise NlvError(f"{flag} {path}: empty path")
    if os.path.isdir(path):
        raise NlvError(f"{flag} {path}: Is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise NlvError(f"{flag} {path}: parent is not an existing directory")


def _certificate_target(flag: str, path) -> None:
    """Refuse, before any search, a target :func:`_output_target` refuses or
    one that exists and is not a regular file: the value is re-derived from
    the bytes read back, which /dev/null or a pipe cannot give."""
    _output_target(flag, path)
    if path and os.path.exists(path) and not os.path.isfile(path):
        raise NlvError(
            f"{flag} {path}: not a regular file, so the certificate could not be read back")


def _run_quantum_lb(args):
    _certificate_target("--spec-out", args.spec_out)
    game = load_game(Path(args.game).read_text())
    _, spec = entangled_lower_bound(
        game, dim=args.dim, restarts=args.restarts, seed=args.seed, iters=args.iters)
    write_file(args.spec_out, save_spec(spec))
    # Report the value the written file certifies, not the in-memory spec's.
    value = game_value(game, quantum_correlation(load_spec(Path(args.spec_out).read_text())))
    return {"value": value, "dim": args.dim, "spec_file": args.spec_out}


def _run_sync_lb(args):
    _certificate_target("--family-out", args.family_out)
    game = load_game(Path(args.game).read_text())
    value, family = sync_value_lower_bound(
        game, dim=args.dim, restarts=args.restarts, seed=args.seed, iters=args.iters)
    if args.family_out:
        write_file(args.family_out, save_family(family))
        value = game_value(game, tracial_correlation(
            load_family(Path(args.family_out).read_text())))
    return {"value": value, "dim": args.dim, "family_file": args.family_out,
            "note": "finite-dimensional lower bound"}


def _run_superdense(args):
    if len(args.msg) != 2 or any(ch not in "12" for ch in args.msg):
        raise NlvError(f"--msg must be two characters from {{1,2}}, got {args.msg!r}")
    message = TwoBitMessage(int(args.msg[0]), int(args.msg[1]))
    encoded = superdense_encode(message)
    decoded, probs = superdense_decode(encoded)
    return {
        "message": [message.first, message.second],
        "encoded_state": interleave(encoded),
        "decoded": [decoded.first, decoded.second],
        "outcome_probabilities": [float(v) for v in probs],
        "roundtrip_ok": decoded == message,
    }


def _run_epr(args):
    stats = epr_correlation_demo(args.trials, args.seed, basis=args.basis)
    return {
        "trials": stats.trials,
        "basis": stats.basis,
        "agreement_frequency": stats.agreement_frequency,
        "alice_marginal": list(stats.alice_marginal),
    }


_CSV_BLOCK_ROWS = 64


def _csv_text(values) -> str:
    """The rows of a 2-D float64 array as CSV text: each row is
    ``",".join(map(repr, row))`` and a newline.  orjson writes ``repr``'s
    shortest round-trip digits ``_CSV_BLOCK_ROWS`` rows at a time, but lays
    out ``0 < |x| < 1e-4`` (``0.00001``), ``|x| >= 1e16`` (``1e16``) and
    non-finite x otherwise; those entries go to it as NaN, and each ``null``
    it writes is replaced by the entry's ``repr``."""
    import orjson  # here, so that start-up and the searches never load it
    blocks = []
    for start in range(0, len(values), _CSV_BLOCK_ROWS):
        block = values[start:start + _CSV_BLOCK_ROWS]
        size = np.abs(block)
        odd = ((size > 0) & (size < 1e-4)) | ~(size < 1e16)
        dumped = orjson.dumps(np.where(odd, np.nan, block), option=orjson.OPT_SERIALIZE_NUMPY)
        pieces = dumped[2:-2].decode().split("null")
        reprs = [repr(x) for x in block[odd].tolist()] + [""]
        text = "".join(piece + token for piece, token in zip(pieces, reprs))
        blocks.append("\n".join(text.split("],[")) + "\n")
    return "".join(blocks)


def _run_moments(args):
    if args.moments_command == "map":
        mats = load_matrices(Path(args.matrices).read_text())
        if len(mats) != args.n:
            raise NlvError(f"matrix file holds {len(mats)} matrices, --n is {args.n}")
        values = moment_map(mats, args.d)
        return {"count": values.size, "values": interleave(values)}
    if args.moments_command == "cloud":
        _output_target("--out", args.out)
        cloud = sample_moment_cloud(args.n, args.d, args.p, args.count, args.seed)
        write_file(args.out, _csv_text(cloud.view(np.float64)))
        return {"rows": len(cloud),
                "moments_per_row": cloud.shape[1] if len(cloud) else 0,
                "csv_file": args.out}
    report = density_check(args.n, args.d, args.p1, args.p2, args.eps,
                           (args.count1, args.count2), args.seed)
    return {
        "covered_fraction": report.covered_fraction,
        "max_gap": report.max_gap,
        "eps": report.eps,
        "counts": list(report.counts),
        "note": report.note,
    }


def _run_tm(args):
    machine = load_machine(Path(args.machine).read_text())
    result = tm_run(machine, args.input, args.budget, trace=args.trace)
    if isinstance(result, Halted):
        out = {"status": "halted", "output": result.output, "steps": result.steps}
    else:
        out = {"status": "budget_exceeded", "steps": result.steps}
    if args.trace:
        out["trace"] = result.trace
    return out


def _run_demo_chsh(args):
    game = chsh_game()
    cval, argmax = classical_value(game)
    qval = game_value(game, quantum_correlation(chsh_optimal_spec()))
    out = {
        "classical_value": cval,
        "classical_A": list(argmax.alice),
        "classical_B": list(argmax.bob),
        "quantum_value": qval,
        "gap": qval - cval,
    }
    if args.completeness is not None:
        out["quantum_clears_completeness"] = qval >= args.completeness
    if args.soundness is not None:
        out["classical_below_soundness"] = cval <= args.soundness
    return out


_HANDLERS = {
    "value": _run_value,
    "classical": _run_classical,
    "quantum-lb": _run_quantum_lb,
    "sync-lb": _run_sync_lb,
    "superdense": _run_superdense,
    "epr": _run_epr,
    "moments": _run_moments,
    "tm": _run_tm,
    "demo-chsh": _run_demo_chsh,
}


def _emit(result: dict, manifest: dict, as_json: bool) -> None:
    """Print the result: as JSON, streamed to stdout a piece at a time so
    that a long trace is never held twice, or as ``key: value`` lines."""
    if as_json:
        json.dump({**result, "manifest": manifest}, sys.stdout, sort_keys=True, indent=2)
        print()
        return
    for key, value in result.items():
        if key == "trace":
            print(f"{key}:")
            for line in value:
                print(f"  {line}")
        else:
            print(f"{key}: {value}")
    print(f"[{manifest['subcommand']} v{manifest['version']} "
          f"params={manifest['parameters']} runtime={manifest['runtime_seconds']:.3f}s]")


def dispatch(argv) -> int:
    """Parse argv, run the matching subcommand, and print its result.
    Returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        result = _HANDLERS[args.subcommand](args)
    except (NlvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "subcommand": args.subcommand,
        "parameters": _params(args),
        "version": __version__,
        "runtime_seconds": time.perf_counter() - started,
    }
    try:
        _emit(result, manifest, args.json)
        sys.stdout.flush()
    except OSError as exc:
        # Whatever is left in stdout's buffer cannot be delivered; send it to
        # devnull so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
