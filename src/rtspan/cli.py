"""Command line front door.

Subcommands: gen (seeded random digraphs), spanner, cover, partition
(thin wrappers over the library) and verify (re-check a spanner file
against its graph).

Output convention: --format edgelist writes the primary artifact as an
edge list, with a stats document in <output>.stats.json (or on stderr
when writing to stdout); --format json-stats writes one JSON document
instead.  Every stats document records the seed; spanner and cover
documents also record the cover constants c, epsilon and trial_mult.
Exit codes: 0 when all requested checks pass, 1 when one fails, 2 on bad
input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import asdict

from .cover import CoverParams, swrt_cover
from .graph import Graph, EdgeListError, parse_edge_list, write_edge_list
from .partition import cluster
from .spanner import swrt_spanner, swrt_spanner_weighted
from .verify import check_cover, check_stretch, stretch_bound

SCHEMA = "rtspan.stats.v3"


def generate_graph(n, m, rng, w_min=1.0, w_max=2.0, strongly_connected=False,
                   quantum=0.0625) -> Graph:
    """Seeded Erdős–Rényi digraph on distinct ordered pairs.

    strongly_connected first lays a random Hamiltonian cycle so every
    round-trip distance is finite (needs m >= n).  Weights default to a
    1/16 grid so independently computed path sums agree bit for bit;
    quantum=0 draws continuous uniforms instead.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0 or m > n * (n - 1):
        raise ValueError("m must fit in distinct ordered pairs")
    if strongly_connected and n > 1 and m < n:
        raise ValueError("strongly-connected mode needs m >= n")
    if not (0 < w_min <= w_max):
        raise ValueError("need 0 < w_min <= w_max")

    if quantum:
        lo = math.ceil(w_min / quantum)
        hi = math.floor(w_max / quantum)
        if lo > hi:
            raise ValueError("weight range contains no grid point")
        draw = lambda: rng.randint(lo, hi) * quantum
    else:
        draw = lambda: rng.uniform(w_min, w_max)

    edges = []
    used = set()
    if strongly_connected and n > 1:
        perm = list(range(n))
        rng.shuffle(perm)
        for i in range(n):
            u, v = perm[i], perm[(i + 1) % n]
            used.add((u, v))
            edges.append((u, v, draw()))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in used:
            continue
        used.add((u, v))
        edges.append((u, v, draw()))
    return Graph(n, edges)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _resolve_vertices(spec, g, seed, stream, allow_empty=False):
    """A bare integer samples that many distinct ids from a seeded stream;
    anything else is read as a file of whitespace-separated vertex ids."""
    if spec is None:
        raise ValueError(f"--{stream} is required")
    try:
        count = int(spec)
    except ValueError:
        with open(spec, "r", encoding="utf-8") as fh:
            toks = fh.read().split()
        ids = sorted({int(t) for t in toks})
        for v in ids:
            if not (0 <= v < g.n):
                raise ValueError(f"vertex id {v} out of range in {spec}")
        if not ids and not allow_empty:
            raise ValueError(f"{spec} lists no vertex ids")
        return ids
    if count == 0 and allow_empty:
        return []
    if not (1 <= count <= g.n):
        raise ValueError(f"--{stream} count must be in 1..{g.n}")
    rng = random.Random(f"{seed}:{stream}")
    return sorted(rng.sample(range(g.n), count))


def _params(args) -> CoverParams:
    return CoverParams(c=args.c, epsilon=args.epsilon, trial_mult=args.trials_mult)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args, primary_text: str, stats: dict):
    """edgelist: primary artifact to --output/stdout, stats to a sidecar
    file or stderr.  json-stats: the stats document is the only output."""
    if args.format == "json-stats":
        _write_text(_dumps(stats), args.output)
        return
    _write_text(primary_text, args.output)
    if args.output is None:
        sys.stderr.write(_dumps(stats))
    else:
        _write_text(_dumps(stats), args.output + ".stats.json")


def cmd_gen(args) -> int:
    rng = random.Random(f"{args.seed}:gen")
    g = generate_graph(args.n, args.m, rng, w_min=args.w_min, w_max=args.w_max,
                       strongly_connected=args.strongly_connected, quantum=args.quantum)
    text = write_edge_list(g)
    stats = {
        "schema": SCHEMA, "command": "gen", "seed": args.seed,
        "n": g.n, "m": g.m, "w_min": args.w_min, "w_max": args.w_max,
        "strongly_connected": args.strongly_connected, "quantum": args.quantum,
    }
    if args.format == "json-stats":
        stats["edge_list"] = text
    _emit(args, text, stats)
    return 0


def cmd_spanner(args) -> int:
    g = _load_graph(args.input)
    sources = _resolve_vertices(args.sources, g, args.seed, "sources")
    params = _params(args)
    scale = 1.0
    gb = g
    if args.weighted_variant and g.m > 0:
        w_min = min(w for _, _, w in g.edges)
        if w_min < 1.0:
            # weighted construction needs weights >= 1; stretch is scale-free
            scale = 1.0 / w_min
            gb = Graph(g.n, [(u, v, w * scale) for u, v, w in g.edges])
    rng = random.Random(f"{args.seed}:spanner")
    build = swrt_spanner_weighted if args.weighted_variant else swrt_spanner
    result = build(gb, args.k, sources, params=params, rng=rng)
    stats = {
        "schema": SCHEMA, "command": "spanner", "seed": args.seed,
        "weight_scale": scale, "sources_resolved": sources, **asdict(params),
    }
    stats.update(result.stats)
    ok = True
    if args.verify:
        rep = check_stretch(g, result.edges, sources, stretch_bound(args.k, g.n, params.c))
        stats["stretch"] = asdict(rep)
        ok = rep.passed
    text = write_edge_list(Graph(g.n, [g.edges[i] for i in result.edges]))
    _emit(args, text, stats)
    return 0 if ok else 1


def cmd_cover(args) -> int:
    g = _load_graph(args.input)
    sources = _resolve_vertices(args.sources, g, args.seed, "sources")
    params = _params(args)
    rng = random.Random(f"{args.seed}:cover")
    cov = swrt_cover(g, args.k, args.radius, sources, params=params, rng=rng)
    counts = cov.vertex_ball_counts()
    stats = {
        "schema": SCHEMA, "command": "cover", "seed": args.seed,
        "k": args.k, "radius": args.radius, "inner_radius": cov.r,
        "trials": cov.trials, "max_depth": cov.max_depth,
        "sources_resolved": sources, **asdict(params),
        "balls": [{"center": b.center, "radius": b.radius, "size": len(b.members)}
                  for b in cov.balls],
        "failure_parts": [len(p) for p in cov.failure_parts],
        "max_vertex_ball_count": max(counts.values()) if counts else 0,
    }
    ok = True
    if args.verify:
        rep = check_cover(g, cov, sources)
        # the radius is the document's own; per-ball lists stay out of it
        stats["cover_check"] = {key: val for key, val in asdict(rep).items()
                                if key not in ("radius", "uncovered_sample", "ball_radii")}
        ok = rep.passed
    edge_ids = sorted({e for b in cov.balls for e in b.rt_tree_edges})
    text = write_edge_list(Graph(g.n, [g.edges[i] for i in edge_ids]))
    _emit(args, text, stats)
    return 0 if ok else 1


def cmd_partition(args) -> int:
    g = _load_graph(args.input)
    centers = _resolve_vertices(args.centers, g, args.seed, "centers", allow_empty=True)
    rng = random.Random(f"{args.seed}:partition")
    part = cluster(g, None, centers, args.radius, args.s, direction=args.direction, rng=rng)
    stats = {
        "schema": SCHEMA, "command": "partition", "seed": args.seed,
        "radius": args.radius, "s": args.s, "direction": args.direction,
        "centers_resolved": centers,
        "clusters": [{"center": c.center, "radius": c.radius,
                      "members": sorted(c.members)} for c in part.clusters],
        "residual": sorted(part.residual),
    }
    _write_text(_dumps(stats), args.output)
    return 0


def _match_edge_indexes(g: Graph, h: Graph):
    """Map each subgraph edge to a distinct input edge with identical
    endpoints and weight; weights round-trip exactly through repr."""
    pool = {}
    for idx, (u, v, w) in enumerate(g.edges):
        pool.setdefault((u, v, w), []).append(idx)
    out = []
    for u, v, w in h.edges:
        bucket = pool.get((u, v, w))
        if not bucket:
            raise ValueError(f"spanner edge {u}->{v} w={w!r} is not an input edge")
        out.append(bucket.pop())
    return out


def cmd_verify(args) -> int:
    g = _load_graph(args.input)
    h = _load_graph(args.spanner)
    if h.n != g.n:
        raise ValueError("spanner file must keep the input vertex count")
    bound = stretch_bound(args.k, g.n, args.c)  # checks k and c, also under --bound
    edge_ids = _match_edge_indexes(g, h)
    sources = _resolve_vertices(args.sources, g, args.seed, "sources")
    if args.bound is not None:
        bound = args.bound
    rep = check_stretch(g, edge_ids, sources, bound)
    stats = {
        "schema": SCHEMA, "command": "verify", "seed": args.seed,
        "k": args.k, "c": args.c, "spanner_edges": h.m,
        "sources_resolved": sources, "stretch": asdict(rep),
    }
    _write_text(_dumps(stats), args.output)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rtspan",
        description="Source-wise round-trip spanners and covers of weighted digraphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, run, *, input_required=True):
        p.set_defaults(run=run)
        if input_required:
            p.add_argument("--input", required=True, help="edge list file")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("edgelist", "json-stats"), default="edgelist")

    def cover_knobs(p):
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--sources", required=True,
                       help="vertex id file, or a count sampled from the seed")
        p.add_argument("--c", type=int, default=CoverParams.c)
        p.add_argument("--epsilon", type=float, default=CoverParams.epsilon)
        p.add_argument("--trials-mult", type=int, default=CoverParams.trial_mult)
        p.add_argument("--verify", action="store_true")

    p = sub.add_parser("gen", help="generate a seeded random digraph")
    common(p, cmd_gen, input_required=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w-min", type=float, default=1.0)
    p.add_argument("--w-max", type=float, default=2.0)
    p.add_argument("--strongly-connected", action="store_true")
    p.add_argument("--quantum", type=float, default=0.0625,
                   help="weight grid step; 0 for continuous uniforms")

    p = sub.add_parser("spanner", help="build a source-wise round-trip spanner")
    common(p, cmd_spanner)
    cover_knobs(p)
    p.add_argument("--weighted-variant", action="store_true")

    p = sub.add_parser("cover", help="build a source-wise round-trip cover")
    common(p, cmd_cover)
    cover_knobs(p)
    p.add_argument("--radius", type=float, required=True)

    p = sub.add_parser("partition", help="one randomized clustering pass")
    common(p, cmd_partition)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--centers", required=True,
                   help="vertex id file, or a count (0 for none)")
    p.add_argument("--direction", choices=("out", "in"), default="out")

    p = sub.add_parser("verify", help="re-check a spanner file against its graph")
    common(p, cmd_verify)
    p.add_argument("--spanner", required=True, help="spanner edge list file")
    p.add_argument("--sources", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--c", type=int, default=CoverParams.c)
    p.add_argument("--bound", type=float, default=None,
                   help="stretch bound override (default derived from k, n, c)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, EdgeListError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
