"""Command-line surface: enumeration, decomposition, stacking, categories,
rendering, and the verification harness.

Exit codes: 0 on success, 1 on a domain error, 2 on a usage error, and
141 when standard output is closed before the command has written all of
it (as a shell reports a process that SIGPIPE ended; no traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import islice

from . import sfh, stacking, verify
from . import diagram as dg
from .errors import BadArgument, CapExceeded, SuturaError
from .sfh import root_point
from .words import catalan, narayana, word


EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE

# Rows are encoded and written this many at a time: one json.dumps per
# chunk costs far less than one per row, and memory stays flat in N.
ENUMERATE_CHUNK = 512


def cmd_enumerate(args) -> int:
    if args.N > args.cap:
        raise CapExceeded(f"N={args.N} exceeds the cap {args.cap}; raise --cap")
    diagrams = dg.iter_diagrams(args.N)
    classes = range(-(args.N - 1), args.N, 2)
    if args.e is not None and args.e not in classes:
        valid = ", ".join(str(e) for e in classes)
        raise BadArgument(f"N={args.N} has no euler class {args.e}; the classes are {valid}")
    parts = [narayana(args.N, e) for e in classes]
    footer = f"{catalan(args.N)} = " + "+".join(str(p) for p in parts)
    # every check is above: nothing is written before an error
    out = sys.stdout
    chunks = _chunks(_census_rows(diagrams, args.e), ENUMERATE_CHUNK)
    if args.format == "json":
        # the bytes of json.dumps({"counts": footer, "rows": rows}, sort_keys=True)
        out.write(f'{{"counts": {json.dumps(footer)}, "rows": [')
        sep = ""
        for chunk in chunks:
            out.write(sep + json.dumps(chunk, sort_keys=True)[1:-1])
            sep = ", "
        out.write("]}\n")
    else:
        for chunk in chunks:
            out.write("".join(_text_row(r) for r in chunk))
        out.write(footer + "\n")
    return 0


def _census_rows(diagrams, only_e):
    """One census row per diagram, skipping those outside class only_e."""
    for d in diagrams:
        e = dg.euler_class(d)
        if only_e is not None and e != only_e:
            continue
        lo, hi = sfh.phi(d)
        yield {"diagram": dg.serialize(d), "e": e, "is_basis": lo == hi, "phi": [str(lo), str(hi)]}


def _text_row(r) -> str:
    flag = "basis" if r["is_basis"] else "     "
    return f"{r['diagram']:<40} e={r['e']:+d} {flag} [{r['phi'][0]}, {r['phi'][1]}]\n"


def _chunks(items, size):
    """Consecutive lists of size items (the last may be shorter)."""
    items = iter(items)
    while chunk := list(islice(items, size)):
        yield chunk


def cmd_decompose(args) -> int:
    d = dg.parse(args.diagram)
    # N chords have at most 2^(N-1) words: only past the cap are they counted
    if 1 << d.n - 1 > args.cap and (count := sfh.word_count(d)) > args.cap:
        raise CapExceeded(f"a {d.n}-chord diagram has {count} words, past the cap {args.cap}; raise --cap")
    words = [str(w) for w in sfh.decompose(d).sorted_words()]
    if args.format == "json":
        print(json.dumps({"words": words}))
    else:
        print(" + ".join(f"v_{w}" if w else "v_" for w in words))
    return 0


def cmd_frompair(args) -> int:
    lower, upper = args.words
    d = sfh.from_pair(word(lower), word(upper))
    if args.format == "json":
        print(json.dumps(dg.to_json_dict(d), sort_keys=True))
    else:
        print(dg.serialize(d))
    return 0


def cmd_stack(args) -> int:
    d0, d1 = dg.parse(args.bottom), dg.parse(args.top)
    loops = stacking.loop_count(d0, d1)
    geo = stacking.m_geometric(d0, d1)
    alg = stacking.m_algebraic(d0, d1)
    payload = {
        "tight": bool(geo),
        "loops": loops,
        "m_geometric": geo,
        "m_algebraic": alg,
        "agree": geo == alg,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        status = "tight" if geo else "overtwisted"
        print(f"{status} loops={loops} m_geometric={geo} m_algebraic={alg}")
    return 0


def cmd_category(args) -> int:
    d0, d1 = dg.parse(args.bottom), dg.parse(args.top)
    cat = stacking.bounded_category(d0, d1)
    print(json.dumps(cat.to_json(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_verification(args.level, args.seed)
    report = {
        "level": args.level,
        "checks": [
            {"name": r.name, "pass": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
            for r in results
        ],
        "failures": [r.name for r in results if not r.passed],
    }
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.name:<18} {r.seconds:7.2f}s  {r.detail}")
    return 0 if not report["failures"] else 1


# -- rendering ----------------------------------------------------------------


def _point_xy(p: int, m: int, radius: float, cx: float, cy: float):
    theta = math.pi / 2 - 2 * math.pi * p / m
    return (cx + radius * math.cos(theta), cy - radius * math.sin(theta))


def render_svg(d: dg.ChordDiagram) -> str:
    m = 2 * d.n
    R, C = 100.0, 120.0
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="240" height="240" '
        'viewBox="0 0 240 240">'
    ]
    pts = {p: _point_xy(p, m, R, C, C) for p in range(m)}

    def fmt(x: float) -> str:
        return f"{x:.2f}"

    for orbit in dg.face_cycles(d):
        # arc k is drawn from k+1 back to k, then the chord from k to its partner
        x, y = pts[(orbit[0] + 1) % m]
        path = [f"M {fmt(x)} {fmt(y)}"]
        for k in orbit:
            (ax, ay), (px, py) = pts[k], pts[d.pairing[k]]
            path.append(f"A {fmt(R)} {fmt(R)} 0 0 0 {fmt(ax)} {fmt(ay)}")
            path.append(f"L {fmt(px)} {fmt(py)}")
        fill = "#cfe8ff" if orbit[0] % 2 == 0 else "#ffd9cf"
        out.append(f'<path d="{" ".join(path)} Z" fill="{fill}" stroke="none"/>')
    out.append(f'<circle cx="{fmt(C)}" cy="{fmt(C)}" r="{fmt(R)}" fill="none" stroke="black"/>')
    for a, b in d.chords():
        (x1, y1), (x2, y2) = pts[a], pts[b]
        out.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            'stroke="black" stroke-width="1.5"/>'
        )
    bx, by = pts[0]
    out.append(f'<circle cx="{fmt(bx)}" cy="{fmt(by)}" r="4" fill="red"/>')
    if sfh.is_basis(d):
        root = root_point(d.n, dg.euler_class(d))
        rx, ry = pts[root]
        out.append(
            f'<circle cx="{fmt(rx)}" cy="{fmt(ry)}" r="4" fill="white" stroke="red" '
            'stroke-width="1.5"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


ASCII_WIDTH, ASCII_HEIGHT = 41, 21  # characters of the ascii rendering


def render_ascii(d: dg.ChordDiagram) -> str:
    m = 2 * d.n
    cx, cy = (ASCII_WIDTH - 1) / 2.0, (ASCII_HEIGHT - 1) / 2.0
    rx, ry = cx - 1.0, cy - 1.0
    grid = [[" "] * ASCII_WIDTH for _ in range(ASCII_HEIGHT)]

    def coords(p: int):
        theta = math.pi / 2 - 2 * math.pi * p / m
        return (cx + rx * math.cos(theta), cy - ry * math.sin(theta))

    pts = {p: coords(p) for p in range(m)}
    chords = [(pts[a], pts[b]) for a, b in d.chords()]

    def crossings(x: float, y: float) -> int:
        # ray from (x, y) to a point just inside the boundary arc (0, 1)
        theta = math.pi / 2 - 2 * math.pi * 0.5 / m
        ax, ay = cx + 0.93 * rx * math.cos(theta), cy - 0.93 * ry * math.sin(theta)
        count = 0
        for (p1, p2) in chords:
            if _segments_cross((x, y), (ax, ay), p1, p2):
                count += 1
        return count

    for row in range(ASCII_HEIGHT):
        for col in range(ASCII_WIDTH):
            dx, dy = (col - cx) / rx, (row - cy) / ry
            if dx * dx + dy * dy < 0.92:
                grid[row][col] = "+" if crossings(col, row) % 2 == 0 else "-"
    for t in range(0, 360, 3):
        theta = math.radians(t)
        col = int(round(cx + rx * math.cos(theta)))
        row = int(round(cy - ry * math.sin(theta)))
        grid[row][col] = "."
    for (x1, y1), (x2, y2) in chords:
        steps = int(max(abs(x2 - x1), abs(y2 - y1)) * 2) + 1
        for t in range(steps + 1):
            x = x1 + (x2 - x1) * t / steps
            y = y1 + (y2 - y1) * t / steps
            grid[int(round(y))][int(round(x))] = "*"
    for p in range(m):
        x, y = pts[p]
        grid[int(round(y))][int(round(x))] = "o"
    bx, by = pts[0]
    grid[int(round(by))][int(round(bx))] = "B"
    if sfh.is_basis(d):
        root = root_point(d.n, dg.euler_class(d))
        x, y = pts[root]
        grid[int(round(y))][int(round(x))] = "R"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


def _segments_cross(a, b, c, d_) -> bool:
    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return (v > 1e-12) - (v < -1e-12)

    return (
        orient(a, b, c) * orient(a, b, d_) < 0
        and orient(c, d_, a) * orient(c, d_, b) < 0
    )


def cmd_render(args) -> int:
    d = dg.parse(args.diagram)
    if args.format == "svg":
        sys.stdout.write(render_svg(d))
    else:
        sys.stdout.write(render_ascii(d))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sutura",
        description="Chord diagrams on the disc: decompositions, stacking, categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list diagrams with a given chord count")
    p.add_argument("N", type=int)
    p.add_argument("--e", type=int, default=None, help="restrict to one euler class")
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="basis decomposition of a diagram")
    p.add_argument("diagram")
    p.add_argument("--cap", type=int, default=1 << 20, metavar="WORDS")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("frompair", help="diagram with given extreme words")
    # one positional of two words: with two single ones, argparse (3.11)
    # strips the word "--" after the first, and "frompair -- -- --" fails
    p.add_argument("words", nargs=2, help="the lower and upper extreme words")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_frompair)

    p = sub.add_parser("stack", help="stackability of two diagrams")
    p.add_argument("bottom")
    p.add_argument("top")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("category", help="bounded category of a tight stacking")
    p.add_argument("bottom")
    p.add_argument("top")
    p.set_defaults(func=cmd_category)

    p = sub.add_parser("verify", help="run the structural verification sweeps")
    p.add_argument("--level", choices=tuple(verify.SIZES), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a diagram")
    p.add_argument("diagram")
    p.add_argument("--format", choices=("svg", "ascii"), default="ascii")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except SuturaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (`sutura enumerate 9 | head -2`); point
        # stdout at devnull so that the flush at exit is quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
