"""Seeded graph6 input stream for the filter-stream workload.

The stream is shaped like the plantri order-11/12 route in the README: random
planar graphs on 10-12 vertices with minimum degree 3, a share made
nonplanar, relabelled duplicates, the five planar 2-line e.c. catalog graphs
and a few vertex-transitive planar graphs.  Everything here is independent of
ecgraphs, so the expected filter counts are known without asking the program:

- planarity is known by construction (edge deletions from a triangulation keep
  it planar; a K3,3 subgraph makes it nonplanar);
- distinct classes are guaranteed by an isomorphism invariant (a candidate
  whose invariant repeats an earlier one is discarded), so the duplicate count
  is exactly the number of relabelled copies written;
- 2-line existential closure is decided by the definitional check below.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

# The five planar 2-line e.c. graphs on 7 vertices (atlas Tc20, Tc30, Tc39,
# Tc43, Tc44), from their published planar drawings.
_CATALOG_EDGES = {
    "Tc20": "01 02 03 12 14 16 25 26 34 35 46 56",
    "Tc30": "01 02 03 12 14 16 25 26 34 35 45 46 56",
    "Tc39": "01 02 03 04 05 12 14 16 25 26 34 35 46 56",
    "Tc43": "01 02 03 04 05 12 14 16 25 26 34 35 45 46 56",
    "Tc44": "01 02 03 04 05 12 14 16 25 26 34 35 36 46 56",
}


def catalog_graphs() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    return {name: (7, [(int(e[0]), int(e[1])) for e in spec.split()]) for name, spec in _CATALOG_EDGES.items()}


def _rows(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _edges(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1]


def write_graph6(rows: list[int]) -> str:
    """graph6 encoding (n <= 62) of adjacency rows."""
    n = len(rows)
    bitlist = [rows[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bitlist += [0] * (-len(bitlist) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bitlist), 6):
        val = 0
        for b in bitlist[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)


def parse_graph6(text: str) -> list[int]:
    """Inverse of write_graph6, used to check the program's survivor strings."""
    n = ord(text[0]) - 63
    bitlist = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bitlist.extend(val >> (5 - t) & 1 for t in range(6))
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bitlist[k]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def is_connected(rows: list[int]) -> bool:
    n = len(rows)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def invariant(rows: list[int]) -> tuple:
    """Isomorphism invariant: per vertex its degree, sorted neighbour degrees
    and triangle count.  Different invariants mean non-isomorphic graphs."""
    n = len(rows)
    deg = [r.bit_count() for r in rows]
    per = []
    for v in range(n):
        nbrs = [u for u in range(n) if rows[v] >> u & 1]
        tri = sum((rows[u] & rows[v]).bit_count() for u in nbrs) // 2
        per.append((deg[v], tuple(sorted(deg[u] for u in nbrs)), tri))
    return n, tuple(sorted(per))


def is_isomorphic(a: list[int], b: list[int]) -> bool:
    """Brute-force isomorphism for small graphs (used on 7-vertex survivors)."""
    n = len(a)
    if n != len(b) or invariant(a) != invariant(b):
        return False
    ea = _edges(a)
    for perm in permutations(range(n)):
        if all(b[perm[u]] >> perm[v] & 1 for u, v in ea):
            return True
    return False


def two_line_ec(rows: list[int]) -> bool:
    """Definitional 2-line existential closure: for every pair of edges and
    each of the four splits some third edge meets exactly the required ones."""
    edges = _edges(rows)
    m = len(edges)
    if m < 3:
        return False
    incident = [0] * len(rows)
    for i, (a, b) in enumerate(edges):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
    meets = [(incident[a] | incident[b]) & ~(1 << i) for i, (a, b) in enumerate(edges)]
    full = (1 << m) - 1
    for i in range(m):
        for j in range(i + 1, m):
            rest = full & ~(1 << i) & ~(1 << j)
            mi, mj = meets[i], meets[j]
            for w in (mi & mj, mi & ~mj, ~mi & mj, ~mi & ~mj):
                if not rest & w:
                    return False
    return True


def _triangulation(rng: random.Random, n: int) -> list[int]:
    """Random maximal planar graph: stacked insertions, then edge flips."""
    rows = _rows(4, combinations(range(4), 2))
    rows += [0] * (n - 4)
    faces = [frozenset(f) for f in combinations(range(4), 3)]
    for v in range(4, n):
        face = faces.pop(rng.randrange(len(faces)))
        for u in face:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        a, b, c = sorted(face)
        faces += [frozenset((a, b, v)), frozenset((b, c, v)), frozenset((a, c, v))]
    for _ in range(2 * n):
        a, b, _ = rng.sample(sorted(rng.choice(faces)), 3)
        pair = [f for f in faces if a in f and b in f]
        (c,) = pair[0] - {a, b}
        (d,) = pair[1] - {a, b}
        if rows[c] >> d & 1 or rows[a].bit_count() <= 3 or rows[b].bit_count() <= 3:
            continue
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
        rows[c] |= 1 << d
        rows[d] |= 1 << c
        faces = [f for f in faces if f not in pair] + [frozenset((a, c, d)), frozenset((b, c, d))]
    return rows


def _thin(rng: random.Random, rows: list[int], target_m: int, keep=frozenset()) -> bool:
    """Delete random edges (outside ``keep``) down to ``target_m`` while the
    minimum degree stays >= 3 and the graph stays connected."""
    edges = [e for e in _edges(rows) if e not in keep]
    rng.shuffle(edges)
    m = len(_edges(rows))
    for u, v in edges:
        if m <= target_m:
            break
        if rows[u].bit_count() <= 3 or rows[v].bit_count() <= 3:
            continue
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        if is_connected(rows):
            m -= 1
        else:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return m <= target_m


def random_planar(rng: random.Random, n: int) -> list[int]:
    rows = _triangulation(rng, n)
    _thin(rng, rows, rng.randint(3 * n // 2 + 1, 3 * n - 6))
    return rows


def random_nonplanar(rng: random.Random, n: int) -> list[int] | None:
    """A planar graph plus a K3,3 subgraph, at most 3n-6 edges so the Euler
    bound cannot decide it; None when thinning cannot reach that bound."""
    rows = random_planar(rng, n)
    picked = rng.sample(range(n), 6)
    keep = set()
    for u in picked[:3]:
        for v in picked[3:]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            keep.add((min(u, v), max(u, v)))
    return rows if _thin(rng, rows, 3 * n - 6, frozenset(keep)) else None


def vertex_transitive_planar() -> dict[str, list[int]]:
    """Prisms, antiprisms, the octahedron, the icosahedron and the
    cuboctahedron (the line graph of the cube)."""
    out = {}
    for k in (5, 6):
        ring = [(i, (i + 1) % k) for i in range(k)]
        out[f"prism{k}"] = _rows(2 * k, ring + [(u + k, v + k) for u, v in ring] + [(i, i + k) for i in range(k)])
    for k in (4, 5, 6):
        ring = [(i, (i + 1) % k) for i in range(k)]
        cross = [(i, k + i) for i in range(k)] + [(i, k + (i + 1) % k) for i in range(k)]
        out[f"antiprism{k}"] = _rows(2 * k, ring + [(u + k, v + k) for u, v in ring] + cross)
    out["octahedron"] = _rows(6, [e for e in combinations(range(6), 2) if e not in ((0, 1), (2, 3), (4, 5))])
    anti = _edges(out["antiprism5"])
    poles = [(i, 10) for i in range(5)] + [(5 + i, 11) for i in range(5)]
    out["icosahedron"] = _rows(12, anti + poles)
    cube = [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)]
    out["cuboctahedron"] = _rows(12, [(i, j) for i, j in combinations(range(12), 2) if set(cube[i]) & set(cube[j])])
    return out


def _relabel(rng: random.Random, rows: list[int]) -> list[int]:
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for u, v in _edges(rows):
        out[perm[u]] |= 1 << perm[v]
        out[perm[v]] |= 1 << perm[u]
    return out


def make_stream(seed: int, n_random: int, n_nonplanar: int, n_duplicates: int) -> dict:
    """The stream's lines plus the filter outcomes expected for them.

    Returns ``lines``, ``composition`` (shares of lines), ``survivor_rows``
    and ``expected`` counts for the planar route (``planar``) and the route
    without the planarity predicate (``no_planar``).
    """
    rng = random.Random(seed)
    seen: set = set()
    originals: list[tuple[str, list[int], bool]] = []  # (kind, rows, planar)

    def admit(kind: str, rows: list[int], planar: bool) -> bool:
        key = invariant(rows)
        if key in seen:
            return False
        seen.add(key)
        originals.append((kind, rows, planar))
        return True

    for n, edges in catalog_graphs().values():
        admit("catalog", _rows(n, edges), True)
    for rows in vertex_transitive_planar().values():
        admit("symmetric", rows, True)
    made = 0
    while made < n_random:
        made += admit("random", random_planar(rng, rng.randint(10, 12)), True)
    made = 0
    while made < n_nonplanar:
        rows = random_nonplanar(rng, rng.randint(10, 12))
        if rows is None or two_line_ec(rows):
            continue
        made += admit("nonplanar", rows, False)

    entries = [(kind, rows) for kind, rows, _ in originals]
    for _ in range(n_duplicates):
        kind, rows, _ = rng.choice(originals)
        entries.append((kind, rows))
    rng.shuffle(entries)
    lines = [write_graph6(_relabel(rng, rows)) for _, rows in entries]

    # By the planar classification only the catalog graphs are 2-line e.c.;
    # the definitional check confirms it for every class in the stream.
    survivors = [(kind, rows) for kind, rows, _ in originals if two_line_ec(rows)]
    if any(kind != "catalog" for kind, _ in survivors):
        raise AssertionError("a non-catalog graph in the stream is 2-line e.c.")
    distinct = len(originals)
    nonplanar = sum(1 for _, _, planar in originals if not planar)
    kinds = [kind for kind, _ in entries]
    total = len(lines)
    return {
        "lines": lines,
        "survivor_rows": [rows for _, rows in survivors],
        "composition": {
            "lines": total,
            "duplicate_share": n_duplicates / total,
            "nonplanar_share": kinds.count("nonplanar") / total,
            "symmetric_share": kinds.count("symmetric") / total,
            "catalog_share": kinds.count("catalog") / total,
        },
        "expected": {
            "planar": _counts(total, duplicate=total - distinct, planar=nonplanar,
                              two_line_ec=distinct - nonplanar - len(survivors)),
            "no_planar": _counts(total, duplicate=total - distinct, two_line_ec=distinct - len(survivors)),
        },
    }


def _counts(generated: int, **rejected: int) -> dict:
    """Counts as the filter report gives them: rejections only when nonzero."""
    return {"generated": generated, "per_filter_rejected": {k: v for k, v in rejected.items() if v}}
