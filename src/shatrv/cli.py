"""Command-line entry point.

Subcommands:

  validate     check known-answer vectors (host library by default, or a
               guest strategy with --strategy)
  bench        run vectors under every selected strategy and report
               instruction statistics
  gen-kernels  write generated kernels as {variant}-{strategy}.s files
  asm          assemble a source file to raw code bytes
  disasm       disassemble raw code bytes to canonical text

Exit codes: 0 all digests match, 1 any mismatch or guest fault,
2 usage or input errors.
"""

import argparse
import pathlib
import sys

from . import keccak
from .asm import AsmError, assemble, disassemble
from .bench import (
    DEFAULT_BUDGET, DEFAULT_MEMORY_SIZE, emit_report, run_benchmark,
)
from .cavp import BUNDLED_CLASSES, CavpError, load_bundled, parse_rsp
from .emulator import CostModel
from .kernels import STRATEGIES, kernel_source

__all__ = ["main"]

_VARIANTS = tuple(sorted(keccak.VARIANTS))


def _add_selection_flags(p):
    p.add_argument("--variant", action="append", choices=_VARIANTS,
                   help="restrict to one variant (repeatable; default all)")
    p.add_argument("--strategy", action="append", choices=STRATEGIES,
                   help="restrict to one strategy (repeatable)")
    p.add_argument("--vectors", action="append", metavar="PATH",
                   help=".rsp file or directory (repeatable; default bundled)")


def _add_machine_flags(p):
    p.add_argument("--mem-size", type=int, default=DEFAULT_MEMORY_SIZE,
                   help="guest memory bytes (default %(default)s)")
    p.add_argument("--mem-latency", type=int, default=0,
                   help="extra cycles per memory access (default 0)")
    p.add_argument("--shatr-cycles", type=int, default=1,
                   help="cycles per shatr instruction (default 1)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="instruction budget per vector (default %(default)s)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shatrv",
        description="SHA-3 accelerator-instruction emulator and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="known-answer check")
    _add_selection_flags(p)
    _add_machine_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bench", help="run vectors and report statistics")
    _add_selection_flags(p)
    _add_machine_flags(p)
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", metavar="FILE", help="write the report here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen-kernels", help="write generated kernel sources")
    p.add_argument("--variant", action="append", choices=_VARIANTS)
    p.add_argument("--strategy", action="append", choices=STRATEGIES)
    p.add_argument("--out", metavar="DIR", default="kernels")
    p.set_defaults(func=_cmd_gen_kernels)

    p = sub.add_parser("asm", help="assemble a source file")
    p.add_argument("input", metavar="FILE.s")
    p.add_argument("--out", "-o", metavar="FILE.bin")
    p.set_defaults(func=_cmd_asm)

    p = sub.add_parser("disasm", help="disassemble code bytes")
    p.add_argument("input", metavar="FILE.bin")
    p.add_argument("--out", "-o", metavar="FILE.s")
    p.set_defaults(func=_cmd_disasm)

    return parser


def _load_sets(args):
    variants = args.variant or list(_VARIANTS)
    sets = []
    if args.vectors:
        paths = []
        for entry in args.vectors:
            path = pathlib.Path(entry)
            if path.is_dir():
                paths += sorted(path.glob("*.rsp"))
            else:
                paths.append(path)
        for path in paths:
            vs = parse_rsp(path.read_text(), source=path.name)
            if vs.variant in variants:
                sets.append(vs)
    else:
        for variant in variants:
            for msg_class in BUNDLED_CLASSES:
                sets.append(load_bundled(variant, msg_class))
    if not any(vs.vectors for vs in sets):
        raise ValueError("no vectors selected")
    return sets


def _bench(args):
    """The benchmark of the selected vectors, strategies and machine flags."""
    return run_benchmark(
        _load_sets(args), strategies=tuple(args.strategy or STRATEGIES),
        cost_model=CostModel(extra_mem_access_cycles=args.mem_latency,
                             shatr_cycles=args.shatr_cycles),
        memory_size=args.mem_size, budget=args.budget)


def _cmd_validate(args):
    failures = 0
    if args.strategy:
        report = _bench(args)
        for o in report.outcomes:
            if o.status != "pass":
                failures += 1
                print(f"{o.variant} {o.msg_class} #{o.index} [{o.strategy}]: "
                      f"{o.status}: {o.detail}")
        total = len(report.outcomes)
        checked = "guest " + "/".join(s for s in STRATEGIES if s in args.strategy)
    else:
        total = 0
        for vs in _load_sets(args):
            for i, v in enumerate(vs.vectors):
                total += 1
                got = keccak.sha3_digest(v.message, vs.variant)
                if got != v.digest:
                    failures += 1
                    print(f"{vs.source} #{i} (Len = {v.length_bits}): digest "
                          f"mismatch: got {got.hex()}, expected {v.digest.hex()}")
        checked = "host library"
    print(f"{total - failures}/{total} vectors pass ({checked})")
    return 1 if failures else 0


def _cmd_bench(args):
    report = _bench(args)
    text = emit_report(report, args.format)
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if all(o.status == "pass" for o in report.outcomes) else 1


def _cmd_gen_kernels(args):
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for variant in args.variant or _VARIANTS:
        for strategy in args.strategy or STRATEGIES:
            path = outdir / f"{variant}-{strategy}.s"
            path.write_text(kernel_source(strategy, variant))
            print(f"wrote {path}")
    return 0


def _cmd_asm(args):
    source = pathlib.Path(args.input).read_text()
    program = assemble(source)
    out = pathlib.Path(args.out or pathlib.Path(args.input).with_suffix(".bin"))
    out.write_bytes(program.code)
    if program.data_segments:
        print("note: data segments are not part of the flat code image",
              file=sys.stderr)
    print(f"wrote {out} ({len(program.code)} bytes)")
    return 0


def _cmd_disasm(args):
    blob = pathlib.Path(args.input).read_bytes()
    text = disassemble(blob)
    if args.out:
        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (AsmError, CavpError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
