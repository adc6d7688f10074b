"""Command-line interface: every operation as a subcommand with JSON output.

Reports are deterministic: identical invocations produce byte-identical
stdout (no timestamps; the tool version is pinned in the ``tool`` field).
Exit codes: 0 success, 2 usage error or unusable file, 3 resource cap
exceeded, 1 internal verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from itertools import islice

from . import __version__
from .amenability import cheeger_search, spectral_estimate
from .covering import epimorphism_from_json, verify_star_bijection, verify_surjectivity_on_fragment
from .errors import ResourceCapError, UsageError, VerificationError
from .explore import DEFAULT_VERTEX_CAP, ball, components, euclid_reduce, fragment_from_jsonl, growth_profile
from .forest import component_dot_lines, pattern_spec, verify_forest
from .groups import Integers, group_from_json
from .moves import eval_word, word_to_text
from .tame import verify_component_structure

_EPILOG = """group JSON examples:
  {"kind":"Integers"}                  {"kind":"FreeAbelian","d":2}
  {"kind":"InfiniteDihedral"}          {"kind":"Heisenberg"}
  {"kind":"FiniteAbelianExp","m":3,"d":2}   {"kind":"BurnsideB23"}
  {"kind":"FreeGroup","d":2}           {"kind":"FiniteCayley","table":[[0,1],[1,0]],"identity":0}

root tuples are JSON lists of elements, e.g. --root '[2,3]' over the
integers, --root '[[0,1],[1,1]]' over the infinite dihedral group (whose two
designated generating pairs are [[1,0],[0,1]], a translation with a
reflection, and [[0,1],[1,1]], two reflections), or --root '["a","b"]' over
a free group."""

# lines joined per write of an export
_WRITE_LINES = 256


def _json_arg(text: str, lists: bool = False):
    # argparse shows the text of an ArgumentTypeError, but not of a ValueError
    try:
        obj = json.loads(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"invalid JSON: {e}") from None
    if lists and not isinstance(obj, list):
        raise argparse.ArgumentTypeError("must be a JSON list of elements")
    return obj


def _parse_root(group, obj, n: int | None):
    if not isinstance(obj, list) or not obj:
        raise UsageError("--root must be a nonempty JSON list of elements")
    root = tuple(group.element_from_json(e) for e in obj)
    if n is not None and n != len(root):
        raise UsageError(f"--n {n} does not match root length {len(root)}")
    return root


def _emit(report: dict):
    sys.stdout.write(json.dumps({**report, "tool": f"nielsen {__version__}"}, sort_keys=True) + "\n")


def _write_payload(lines, path: str | None):
    """Write an iterator of lines to the file ``path``, or to stdout, as
    they are made, ``_WRITE_LINES`` at a time."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        for chunk in iter(lambda: "".join(islice(lines, _WRITE_LINES)), ""):
            out.write(chunk)


def _add_fragment_args(p):
    p.add_argument("--group", required=True, type=_json_arg, help="group spec JSON")
    p.add_argument("--n", type=int, default=None, help="tuple length (default: root length)")
    p.add_argument("--root", required=True, type=_json_arg, help="root tuple JSON")
    p.add_argument("--radius", required=True, type=int, help="BFS radius")
    p.add_argument("--window", type=int, default=None, help="max element size; outside vertices stay unexpanded")
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help="vertex cap")


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nielsen",
        description="construct, explore and verify Nielsen graphs N_n(G)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="BFS ball summary")
    _add_fragment_args(p)

    p = sub.add_parser("export", help="write a fragment as DOT or JSONL")
    _add_fragment_args(p)
    p.add_argument("--format", choices=["dot", "jsonl"], required=True)
    p.add_argument("--output", default=None)

    p = sub.add_parser("growth", help="cumulative ball sizes by radius")
    _add_fragment_args(p)

    p = sub.add_parser("cheeger", help="isoperimetric upper bound search")
    _add_fragment_args(p)
    p.add_argument("--strategy", choices=["balls", "sweep"], default="balls")

    p = sub.add_parser("spectral", help="Kesten spectral-radius estimate from exact walk counts")
    p.add_argument("--group", required=True, type=_json_arg)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--root", required=True, type=_json_arg)
    p.add_argument("--k", required=True, type=int, help="walk length (k >= 1)")
    p.add_argument("--window", type=int, default=None)

    p = sub.add_parser("components", help="Nielsen classes of a finite group")
    p.add_argument("--group", required=True, type=_json_arg)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)

    p = sub.add_parser("euclid", help="move word carrying a gcd-1 integer tuple to (1,0,...,0)")
    p.add_argument("--root", required=True, type=_json_arg)

    p = sub.add_parser("forest", help="verify the rooted subforest of N_n(Z) on a window")
    p.add_argument("action", nargs="?", choices=["verify"], default="verify")
    p.add_argument("--n", required=True, type=int, choices=[2, 3])
    p.add_argument("--window", required=True, type=int)
    p.add_argument("--pattern", default=None,
                   help="sign pattern like '+-0': export that component instead "
                        "(write --pattern=-+ for patterns starting with '-')")
    p.add_argument("--output", default=None)

    p = sub.add_parser("cover", help="verify covering-map properties of an epimorphism")
    p.add_argument("action", nargs="?", choices=["verify"], default="verify")
    p.add_argument("--pi", required=True, type=_json_arg, help="epimorphism JSON, e.g. "
                   '\'{"rule":"project","domain":{"kind":"FreeAbelian","d":2},"e":1}\'')
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fragment", default=None, help="codomain fragment (JSONL) to lift")
    p.add_argument("--seed-tuple", type=functools.partial(_json_arg, lists=True), default=None,
                   help="generating tuple of the domain used as the lift seed")

    p = sub.add_parser("tame", help="component structure of N_d(G) for finite relatively free G")
    p.add_argument("--group", required=True, type=_json_arg)
    p.add_argument("--d", required=True, type=int)

    return ap


def _fragment_from_args(args):
    group = group_from_json(args.group)
    root = _parse_root(group, args.root, args.n)
    return group, root, ball(group, root, args.radius, window=args.window, cap=args.cap)


def run(argv) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "explore":
        group, root, frag = _fragment_from_args(args)
        profile = None if frag.truncated else growth_profile(frag)
        _emit({
            "group": group.spec_json(),
            "n": frag.n,
            "root": [group.element_to_json(g) for g in root],
            "radius": frag.radius,
            "window": frag.window,
            "vertices": len(frag),
            "expanded": int(frag.expanded.sum()),
            "truncated": frag.truncated,
            "balls": profile,
        })
        return 0

    if args.command == "export":
        _, _, frag = _fragment_from_args(args)  # every cap is checked here, before a byte is written
        _write_payload(frag.dot_lines() if args.format == "dot" else frag.jsonl_lines(), args.output)
        return 0

    if args.command == "growth":
        group, root, frag = _fragment_from_args(args)
        _emit({
            "group": group.spec_json(),
            "root": [group.element_to_json(g) for g in root],
            "profile": growth_profile(frag),
        })
        return 0

    if args.command == "cheeger":
        group, root, frag = _fragment_from_args(args)
        best = cheeger_search(frag, strategy=args.strategy)
        _emit({"group": group.spec_json(), "strategy": args.strategy, **best.to_json()})
        return 0

    if args.command == "spectral":
        group = group_from_json(args.group)
        root = _parse_root(group, args.root, args.n)
        est = spectral_estimate(group, root, args.k, window=args.window)
        _emit({"group": group.spec_json(), "root": [group.element_to_json(g) for g in root], **est.to_json()})
        return 0

    if args.command == "components":
        group = group_from_json(args.group)
        rep = components(group, args.n, cap=args.cap)
        _emit({
            "group": group.spec_json(),
            "n": args.n,
            "components": rep.num_components,
            "sizes": sorted(rep.sizes, reverse=True),
            "generating_tuples": rep.generating_count,
            "total_tuples": rep.total_tuples,
            "representatives": [[group.element_to_json(g) for g in s] for s in rep.representatives],
        })
        return 0

    if args.command == "euclid":
        group = Integers()
        root = _parse_root(group, args.root, None)
        word = euclid_reduce(root)
        result = eval_word(group, root, word)
        _emit({
            "root": list(root),
            "word": word_to_text(word),
            "length": len(word),
            "result": list(result),
            "verified": result == (1,) + (0,) * (len(root) - 1),
        })
        return 0

    if args.command == "forest":
        if args.pattern is not None:
            spec = pattern_spec(args.pattern, args.window)
            if spec.n != args.n:
                raise UsageError(f"pattern length {spec.n} does not match --n {args.n}")
            _write_payload(component_dot_lines(spec), args.output)
            return 0
        report = verify_forest(args.n, args.window)
        _emit(report.to_json())
        return 0

    if args.command == "cover":
        epi = epimorphism_from_json(args.pi)
        star = verify_star_bijection(epi, args.n, samples=args.samples, seed=args.seed)
        out = {
            "pi": epi.to_json(),
            "n": args.n,
            **star.to_json(),
            "lifted": None,
            "unreached": None,
        }
        if args.fragment is not None:
            try:
                with open(args.fragment, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as e:
                raise UsageError(f"fragment {args.fragment!r} is not UTF-8 text: {e}") from None
            frag = fragment_from_jsonl(epi.codomain, args.n, text)
            if args.seed_tuple is not None:
                seed_tuple = tuple(epi.domain.element_from_json(e) for e in args.seed_tuple)
            else:
                gens = epi.domain.standard_generators()
                if len(gens) > args.n:
                    raise UsageError("domain rank exceeds n; pass --seed-tuple explicitly")
                seed_tuple = gens + (epi.domain.identity(),) * (args.n - len(gens))
            lift = verify_surjectivity_on_fragment(epi, frag, seed_tuple)
            out["lifted"] = lift.lifted
            out["unreached"] = len(lift.unreached)
        _emit(out)
        return 0 if star.ok else 1

    if args.command == "tame":
        group = group_from_json(args.group)
        report = verify_component_structure(group, args.d)
        _emit(report.to_json())
        return 0 if report.ok else 1

    raise AssertionError("unreachable")


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ResourceCapError as e:
        print(f"resource error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource error: out of memory before any cap was reached; lower the size or --cap", file=sys.stderr)
        return 3
    except VerificationError as e:
        print(f"verification failure (internal bug): {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
