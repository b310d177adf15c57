"""Seeded problem streams for the three benchmark workloads.

Every workload is a fixed list of slots.  A slot fixes what sets the
cost of a problem (kind, floor, cap or jet level, strata and contact
exponents, polynomial supports); the seed draws the rest (classes,
coefficients, arcs, which side of a comparison gets which operand,
where the stream starts).  Cost distributions are thus the same for
every seed while answers differ, which keeps medians and tails
comparable from seed to seed.

Problems whose answers the benchmark cannot compute itself (``jets``,
``hx`` and direct ``ord_jac_along`` calls) come from a finite catalog:
each slot has ``VARIANTS`` deterministic variants, the seed picks one,
and ``digests.json`` holds the stdout digest the seed implementation
printed for every catalog entry (``record_digests.py`` rewrites it).

A problem is a dict: ``call`` is ``"cli"`` (``doc`` is the problem file,
``flags`` the extra command line flags) or ``"ord_jac"`` (a library
call with arguments ``args``); ``spec`` is what ``check.py`` needs to
judge the output and is never shown to the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import check

WORKLOADS = ("deep-measure", "jet-algebra", "small-problems")
VARIANTS = 8
COLD_RUNS = 40
# passes per side of a traced run: a few seconds of work each way
TRACE_PASSES = {"deep-measure": 1, "jet-algebra": 2, "small-problems": 20}
VARS = ("x", "y", "z")
DEFAULT_FLOOR = -16


# ---------------------------------------------------------------------------
# text forms the program parses

def _signed(parts):
    out = ""
    for c, body in parts:
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" {'+' if c > 0 else '-'} {body}"
    return out


def render_laurent(terms):
    """{exponent: int} in the canonical ``u^2 - 3 + 2*u^-1`` grammar."""
    parts = []
    for e in sorted(terms, reverse=True):
        c, power = terms[e], "u" if e == 1 else f"u^{e}"
        body = (str(abs(c)) if e == 0 else power if abs(c) == 1
                else f"{abs(c)}*{power}")
        parts.append((c, body))
    return _signed(parts) or "0"


def render_poly(variables, terms):
    """[(exponents, Fraction)] as ``3*x^2*y - 2/3*y^4 + 5``."""
    parts = []
    for exps, c in terms:
        factors = [v if k == 1 else f"{v}^{k}"
                   for v, k in zip(variables, exps) if k]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        parts.append((c, "*".join(factors)))
    return _signed(parts)


# ---------------------------------------------------------------------------
# resolution data; an operand is (json for the program, spec for check.py)

def random_class(rng, degree):
    """Nonzero class with full support 0..degree, positive leading term."""
    terms = {e: rng.choice((-2, -1, 1, 2, 3)) for e in range(degree)}
    terms[degree] = rng.choice((1, 2, 3))
    return terms


def resolution(rng, d, ks_per_stratum, alpha=False):
    """Random strata with prescribed contact exponents ``k = 1 + a + alpha``.

    Returns (resolution json, alpha vectors, checker strata).  Index
    sets are distinct component labels out of ``range(3)``; a class has
    degree ``d - |I|``, the dimension of a stratum of a normal crossing
    divisor with ``|I|`` components.
    """
    strata, alphas, spec = [], [], []
    for i, ks in enumerate(ks_per_stratum):
        cls = random_class(rng, d - len(ks))
        # a negative twist alpha is fine while 1 + a + alpha stays >= 1
        al = [rng.randint(-2, k - 1) if alpha else 0 for k in ks]
        strata.append({"name": f"S{i}",
                       "index_set": sorted(rng.sample(range(3), len(ks))),
                       "class": render_laurent(cls),
                       "p_mults": [k - 1 - x for k, x in zip(ks, al)]})
        alphas.append(al)
        spec.append({"cls": sorted(cls.items()), "d": d, "ks": list(ks)})
    order = list(range(len(strata)))
    rng.shuffle(order)
    return ({"ambient_dim": d, "strata": [strata[i] for i in order]},
            [alphas[i] for i in order], [spec[i] for i in order])


def identity(d):
    """The germ of smooth d-space resolved by nothing: measure u^-d."""
    return ({"resolution": {"ambient_dim": d, "strata": [
        {"name": "center", "index_set": [], "class": "1",
         "p_mults": []}]}},
        {"strata": [{"cls": [(0, 1)], "d": d, "ks": []}]})


def blown_up(d, steps):
    """The same germ resolved by ``steps`` point blow-ups.

    The first blow-up has the origin as center; each later one blows up
    a general point of the newest divisor.  The exceptional divisor of a
    point blow-up is P^(d-1); the strict transforms of the components
    through the point cut it in coordinate hyperplanes, and its Jacobian
    order is ``d - 1`` plus the orders of those components.  The measure
    stays ``u^-d``, equal to the identity resolution's.
    """
    strata = [{"index": (), "cls": {0: 1}}]
    mults = {}
    for new in range(steps):
        target = strata[0] if new == 0 else next(
            s for s in strata if s["index"] == (new - 1,))
        strata.remove(target)
        rest = dict(target["cls"])
        rest[0] = rest.get(0, 0) - 1  # the center leaves the stratum
        rest = {e: c for e, c in rest.items() if c}
        if rest:
            strata.append({"index": target["index"], "cls": rest})
        index = target["index"]
        mults[new] = d - 1 + sum(mults[i] for i in index)
        for size in range(min(len(index), d - 1) + 1):
            m, t = d - 1 - size, len(index) - size
            # P^m minus t coordinate hyperplanes
            if t == 0:
                cls = {i: 1 for i in range(m + 1)}
            else:  # (u - 1)^(t - 1) * u^(m - t + 1)
                cls = {m - j: (-1) ** j * math.comb(t - 1, j) for j in range(t)}
            for sub in itertools.combinations(index, size):
                strata.append({"index": sub + (new,), "cls": cls})
    res = {"ambient_dim": d, "strata": [
        {"name": "E" + "_".join(map(str, s["index"])),
         "index_set": list(s["index"]), "class": render_laurent(s["cls"]),
         "p_mults": [mults[i] for i in s["index"]]} for s in strata]}
    spec = [{"cls": sorted(s["cls"].items()), "d": d,
             "ks": [1 + mults[i] for i in s["index"]]} for s in strata]
    return {"resolution": res}, {"strata": spec}


def key_of(obj, flags=()):
    text = json.dumps([obj, list(flags)], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def cli_problem(kind, payload, spec, floor=None, options=None, flags=()):
    """A problem file; ``spec`` None means checked by recorded digest."""
    doc = {"schema": 1, "kind": kind, "payload": payload}
    options = dict(options or {})
    if floor is not None:
        options["floor"] = floor
    if options:
        doc["options"] = options
    if "e_max_override" in options:
        raise ValueError("generated problems must not use e_max_override")
    if spec is None:
        spec = {"check": "digest", "key": key_of(doc, flags)}
    return {"call": "cli", "doc": doc, "flags": list(flags), "spec": spec}


def series_problem(rng, kind, floor, d, shape):
    """``measure`` or ``integrate`` (with a random twist alpha)."""
    res, alpha, strata = resolution(rng, d, shape, kind == "integrate")
    payload = {"resolution": res}
    if kind == "integrate":
        payload["alpha"] = alpha
    return cli_problem(kind, payload, {
        "check": "series", "floor": DEFAULT_FLOOR if floor is None else floor,
        "strata": strata}, floor)


def operand(rng, d, shape):
    """Resolution data with the given shape, or an exact literal."""
    if shape is None:
        e = -rng.randint(1, 3)
        return render_laurent({e: 1}), {"poly": [(e, 1)]}
    res, _, strata = resolution(rng, d, shape)
    return {"resolution": res}, {"strata": strata}


def compare_problem(rng, floor, a, b):
    if rng.random() < 0.5:
        a, b = b, a
    return cli_problem("compare", {"left": a[0], "right": b[0]},
                       {"check": "order", "left": a[1], "right": b[1]},
                       floor)


def check_map_problem(floor, source, q_mults, mu_x, mu_y):
    """A resolved map: the ``source`` operand's strata with target
    orders ``q_mults``, and the two germ measures."""
    res, spec = source[0]["resolution"], source[1]["strata"]
    diagram = [dict(s, q_mults=q) for s, q in zip(res["strata"], q_mults)]
    dspec = [{"cls": sp["cls"], "p": s["p_mults"], "q": q}
             for s, sp, q in zip(res["strata"], spec, q_mults)]
    d = res["ambient_dim"]
    return cli_problem(
        "check-map", {"diagram": {"ambient_dim": d, "strata": diagram},
                      "mu_x": mu_x[0], "mu_y": mu_y[0]},
        {"check": "check-map", "diagram": {"d": d, "strata": dspec},
         "mu_x": mu_x[1], "mu_y": mu_y[1]},
        floor, flags=["--format", "json"])


def mapped_check_map(rng, floor, d, shape):
    """A random map; mu_x its source measure, mu_y the target-leg measure.

    The target orders are one below the source orders, so the Jacobian is
    bounded below and the comparison report can certify an inequality.
    One map in four instead raises one target order above its source
    order (unbounded below), and one in four swaps the two measures, a
    contradiction the report must refuse.  The orders follow from the
    slot alone, which keeps the cost of a slot the same for every seed.
    """
    mode = rng.choice(("inequality", "inequality", "unbounded", "swapped"))
    source = operand(rng, d, shape)
    strata = source[0]["resolution"]["strata"]
    q_mults = [[max(0, x - 1) for x in s["p_mults"]] for s in strata]
    if mode == "unbounded":
        first = next(s for s in strata if s["p_mults"])
        q_mults[strata.index(first)][0] = first["p_mults"][0] + 1
    target = ({"resolution": {"ambient_dim": d, "strata": [
        dict(s, p_mults=q) for s, q in zip(strata, q_mults)]}},
        {"strata": [dict(sp, ks=[1 + x for x in q])
                    for sp, q in zip(source[1]["strata"], q_mults)]})
    mu_x, mu_y = (target, source) if mode == "swapped" else (source, target)
    return check_map_problem(floor, source, q_mults, mu_x, mu_y)


def distinct(draw, floor):
    """Redraw a random ``compare`` or ``check-map`` problem until its two
    measures differ above the floor.

    Equal measures make the program exit 5 (ROADMAP item 2); they are
    the job of the same-germ slots, which hold their share fixed.  An
    accidental tie between two random operands would make the undecided
    share vary with the seed.
    """
    floor = DEFAULT_FLOOR if floor is None else floor

    def head(measure):
        if "poly" in measure:
            return dict(measure["poly"])
        return check.expand_measure(measure["strata"], floor)[0]

    while True:
        problem = draw()
        spec = problem["spec"]
        a, b = ((spec["left"], spec["right"]) if spec["check"] == "order"
                else (spec["mu_x"], spec["mu_y"]))
        if head(a) != head(b):
            return problem


def same_germ_check_map(floor, d, steps):
    """The identity map resolved by blow-ups: equal measures."""
    source = blown_up(d, steps)
    q_mults = [s["p_mults"] for s in source[0]["resolution"]["strata"]]
    return check_map_problem(floor, source, q_mults, source, identity(d))


def literal_check_map(rng):
    """Identity diagram with exact literal measures: the affirmative path."""
    d = rng.randint(1, 3)
    lit = (render_laurent({-d: 1}), {"poly": [(-d, 1)]})
    return check_map_problem(None, identity(d), [[]], lit, lit)


# ---------------------------------------------------------------------------
# polynomial kinds

def random_fraction(rng):
    """Nonzero p/q with small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.randint(1, 9))


def random_poly(rng, support):
    """Random rational coefficients on a support of exponent tuples."""
    return [(exps, Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)),
                            rng.choice((1, 1, 1, 2, 3))))
            for exps in support]


def support(rng, nvars, degree, nterms):
    """Distinct nonconstant monomials, one of exactly the given degree."""
    out = set()
    total = degree
    while len(out) < nterms:
        exps = [0] * nvars
        for _ in range(total):
            exps[rng.randrange(nvars)] += 1
        out.add(tuple(exps))
        total = rng.randint(1, degree)
    return sorted(out, reverse=True)


def compose_problem(rng, nvars, degree, nterms, cap, default_cap=False):
    """Dense rational arc; the support of f is fixed by the slot."""
    variables = VARS[:nvars]
    shape = random.Random(repr(("compose", nvars, degree, nterms)))
    f = random_poly(rng, support(shape, nvars, degree, nterms))
    f.append(((0,) * nvars, Fraction(rng.randint(1, 5))))
    arc = [[str(random_fraction(rng)) for _ in range(cap + 1)]
           for _ in variables]
    arc[0][0] = "0"  # the first component passes through the origin
    payload = {"variables": list(variables),
               "f": render_poly(variables, f), "arc": arc}
    spec = {"check": "compose", "cap": cap, "arc": arc,
            "f": [(list(e), str(c)) for e, c in f]}
    return cli_problem("compose", payload, spec,
                       options=None if default_cap else {"cap": cap})


def catalog_entry(slot, variant):
    """Deterministic variant of a digest-checked slot.

    ``slot`` is ("jets", nvars, degree, terms, level, generators),
    ("hx", nvars, degree, terms) or ("ord_jac", degree, terms, cap).
    The slot alone fixes the polynomial supports, the variant the
    coefficients, so a slot and variant always give the same problem and
    its recorded digest holds whatever workload seed picked it.
    """
    shape = random.Random(repr(slot))
    rng = random.Random(f"{slot}:{variant}")
    kind = slot[0]
    nvars, degree, nterms = (3, *slot[1:3]) if kind == "ord_jac" \
        else slot[1:4]
    variables = VARS[:nvars]

    def poly():
        return render_poly(variables, random_poly(
            rng, support(shape, nvars, degree, nterms)))

    if kind == "jets":
        level, ngens = slot[4:]
        return cli_problem("jets", {
            "variables": list(variables),
            "generators": [poly() for _ in range(ngens)],
            "level": level}, None)
    if kind == "hx":
        return cli_problem("hx", {"variables": list(variables),
                                  "f": poly()}, None)
    cap = slot[3]
    args = {"variables": list(variables), "sigma": [poly() for _ in VARS],
            "arc": [["0"] + [str(random_fraction(rng)) for _ in range(cap)]
                    for _ in VARS], "cap": cap, "d": 3}
    return {"call": "ord_jac", "args": args,
            "spec": {"check": "digest", "key": key_of(args)}}


# ---------------------------------------------------------------------------
# the workloads

# contact exponents per stratum, with the ambient dimension
DEEP_SHAPES = {
    "one": (1, [[2]]),
    "pair": (2, [[2], [3, 2]]),
    "double": (2, [[2], [3], [2, 3]]),
    "triple": (3, [[2, 3, 4]]),
    "mixed": (3, [[3], [2, 4], [], [5, 3, 2]]),
}

# (kind, floor, shape).  A compare slot names both operand shapes; a
# same-germ slot names the dimension and the number of blow-ups compared
# against the identity.  The slots form cost tiers (milliseconds at the
# reference speed of calib.py, seed implementation) sized so that the
# median and the 90th percentile of a pass each fall inside a tier of
# near-equal costs, not on a step between two tiers.
DEEP_SLOTS = (
    # cheap, 1-20 ms (19)
    [("measure", f, "one") for f in (-400, -800, -1600, -3200)]
    + [("integrate", f, "one") for f in (-400, -3200)]
    + [("check-map", f, "one") for f in (-400, -3200)]
    + [("measure", -400, "double"), ("integrate", -400, "pair"),
       ("measure", -400, "triple"), ("check-map", -400, "triple"),
       ("compare", -3200, ("one", "one")), ("compare", -400, ("one", "pair")),
       ("same-compare", -400, (2, 1)), ("same-compare", -3200, (3, 1)),
       ("same-check-map", -400, (3, 1)), ("same-check-map", -3200, (2, 1)),
       ("same-check-map", -800, (3, 2))]
    # the median tier, 26-31 ms (12)
    + [("same-compare", -800, (2, 2)), ("same-check-map", -800, (2, 2))]
    + [("integrate", -800, "double"), ("measure", -800, "double")] * 2
    + [("compare", -800, ("one", "double")), ("check-map", -800, "double")] * 3
    # 33-44 ms (6)
    + [("measure", -800, "pair"), ("check-map", -400, "pair"),
       ("integrate", -800, "pair"), ("same-compare", -1600, (3, 2)),
       ("measure", -800, "triple"), ("check-map", -400, "mixed")]
    # the 90th-percentile tier, 96-103 ms (11)
    + [("same-compare", -1600, (2, 2)), ("same-check-map", -1600, (2, 2))]
    + [("measure", -1600, "double"), ("check-map", -1600, "double"),
       ("integrate", -1600, "double")] * 2
    + [("compare", -1600, ("one", "double"))] * 3
    # the tail at the deepest floor, 390-530 ms (2)
    + [("measure", -3200, "double"), ("integrate", -3200, "pair")]
)


def _deep(rng, kind, floor, shape):
    if kind == "same-compare":
        d, steps = shape
        return compare_problem(rng, floor, blown_up(d, steps), identity(d))
    if kind == "same-check-map":
        return same_germ_check_map(floor, *shape)
    if kind == "compare":
        (da, ka), (db, kb) = DEEP_SHAPES[shape[0]], DEEP_SHAPES[shape[1]]
        d = max(da, db)
        return distinct(lambda: compare_problem(
            rng, floor, operand(rng, d, ka), operand(rng, d, kb)), floor)
    d, ks = DEEP_SHAPES[shape]
    if kind == "check-map":
        return distinct(lambda: mapped_check_map(rng, floor, d, ks), floor)
    return series_problem(rng, kind, floor, d, ks)


# Cost tiers as for DEEP_SLOTS; see catalog_entry and compose_problem
# for the slot tuples.
JET_SLOTS = (
    # cheap, 1-15 ms (14)
    [("hx", 2, 5, 5), ("hx", 3, 4, 5), ("hx", 3, 5, 6), ("hx", 2, 3, 3)]
    + [("ord_jac", deg, terms, 12) for deg, terms in
       ((2, 2), (3, 2), (2, 3), (2, 4))]
    + [("compose", n, deg, terms, 24) for n, deg, terms in
       ((2, 3, 3), (2, 5, 5), (3, 3, 3), (3, 4, 4))]
    + [("jets", 2, 3, 3, 6, 1), ("jets", 3, 3, 3, 6, 1)]
    # the median tier, 28-42 ms (12)
    + [("ord_jac", deg, terms, 24) for deg, terms in
       ((3, 2), (3, 3), (2, 4))]
    + [("jets", 2, 4, 3, 6, 2), ("jets", 3, 3, 3, 8, 1),
       ("jets", 2, 5, 4, 6, 1), ("jets", 3, 5, 3, 6, 1),
       ("jets", 2, 3, 3, 10, 1), ("jets", 2, 3, 3, 8, 1),
       ("compose", 3, 3, 3, 72), ("compose", 2, 5, 5, 48),
       ("compose", 3, 3, 3, 48)]
    # 50-85 ms (8)
    + [("compose", 3, 4, 4, 48), ("compose", 2, 3, 3, 72),
       ("jets", 3, 3, 3, 12, 1), ("ord_jac", 3, 4, 24),
       ("jets", 3, 4, 4, 8, 1), ("jets", 2, 4, 3, 8, 2),
       ("jets", 2, 3, 3, 12, 1), ("jets", 2, 5, 4, 8, 1)]
    # the 90th-percentile tier, 100-135 ms (7)
    + [("compose", 2, 5, 5, 72), ("compose", 3, 3, 3, 96),
       ("compose", 2, 3, 3, 96), ("compose", 2, 5, 5, 96),
       ("jets", 2, 5, 4, 10, 1), ("compose", 3, 3, 3, 96),
       ("compose", 2, 5, 5, 96)]
    # the tail at level 12, 300-400 ms (2)
    + [("jets", 3, 4, 4, 12, 1), ("jets", 3, 5, 3, 12, 1)]
)


def _jet(rng):
    return [compose_problem(rng, *slot[1:]) if slot[0] == "compose"
            else catalog_entry(slot, rng.randrange(VARIANTS))
            for slot in JET_SLOTS]


SMALL_SHAPES = ([[1]], [[2]], [[3]], [[2], [1, 2]], [[1], [2], [2, 3]],
                [[2, 3]], [[], [2]])

SMALL_CATALOG = (
    [("jets", 2, 3, 2, level, 1) for level in (2, 3, 4)]
    + [("jets", 3, 2, 2, 2, 1), ("jets", 2, 2, 3, 3, 2)]
    + [("hx", 2, 3, 3), ("hx", 3, 2, 3), ("hx", 2, 4, 2)]
)

# what the checker needs for each problem of the golden corpus
# (``tests/golden/manifest.json``); None means by digest
GOLDEN_CHECKS = {
    "cusp_measure.json":
        {"check": "series", "floor": -30,
         "strata": [{"cls": [(0, 1)], "d": 1, "ks": [2]}]},
    "blowup_plane_measure.json":
        {"check": "series", "floor": -40,
         "strata": [{"cls": [(0, 1), (1, 1)], "d": 2, "ks": [2]}]},
    "handle_singular_ideal.json": None,
    "identity_check_map.json":
        {"check": "check-map",
         "diagram": {"d": 1, "strata": [{"cls": [(0, 1)], "p": [],
                                         "q": []}]},
         "mu_x": {"poly": [(-1, 1)]}, "mu_y": {"poly": [(-1, 1)]}},
    "cusp_line_check_map.json":
        {"check": "check-map",
         "diagram": {"d": 1, "strata": [{"cls": [(0, 1)], "p": [1],
                                         "q": [0]}]},
         "mu_x": {"strata": [{"cls": [(0, 1)], "d": 1, "ks": [2]}]},
         "mu_y": {"strata": [{"cls": [(0, 1)], "d": 1, "ks": [1]}]}},
}


def golden_problems():
    """The golden problems verbatim, read from the checkout under test
    (the current directory) with the flags its manifest gives them."""
    corpus = pathlib.Path.cwd() / "tests" / "golden"
    cases = json.loads((corpus / "manifest.json").read_text("utf-8"))
    out = []
    for case in cases["cases"]:
        name, flags = case["problem"], case["flags"]
        if name not in GOLDEN_CHECKS:
            continue  # a newer golden case this benchmark does not check
        doc = json.loads((corpus / name).read_text("utf-8"))
        spec = GOLDEN_CHECKS[name] or {"check": "digest",
                                       "key": key_of(doc, flags)}
        out.append({"call": "cli", "doc": doc, "flags": flags,
                    "spec": spec})
    if len(out) != len(GOLDEN_CHECKS):
        raise ValueError(f"{corpus} lacks some of {sorted(GOLDEN_CHECKS)}")
    return out


def digest_problems():
    """Every problem checked by digest: all catalog variants, golden hx."""
    slots = [s for s in JET_SLOTS if s[0] != "compose"] + list(SMALL_CATALOG)
    return ([catalog_entry(slot, v) for slot in slots
             for v in range(VARIANTS)]
            + [p for p in golden_problems()
               if p["spec"]["check"] == "digest"])


def _small(rng):
    """Default floor and cap throughout; dimensions as small as allowed."""
    def dim(shape):
        return max(1, max(len(ks) for ks in shape))

    problems = golden_problems()
    for _ in range(2):
        for shape in SMALL_SHAPES:
            d = rng.randint(dim(shape), min(3, dim(shape) + 1))
            problems.append(series_problem(rng, "measure", None, d, shape))
        for shape in SMALL_SHAPES[:5]:
            problems.append(series_problem(rng, "integrate", None,
                                           dim(shape), shape))
        for shape in SMALL_SHAPES[:6]:
            other = rng.choice(SMALL_SHAPES[:3] + (None,))
            problems.append(distinct(lambda: compare_problem(
                rng, None, operand(rng, dim(shape), shape),
                operand(rng, dim(shape), other)), None))
        problems.append(compare_problem(rng, None, blown_up(2, 1),
                                        identity(2)))  # exits 5
        for shape in SMALL_SHAPES[1:6]:
            problems.append(distinct(lambda: mapped_check_map(
                rng, None, dim(shape), shape), None))
        problems.append(literal_check_map(rng))
        for n, deg, terms in ((3, 3, 3), (3, 3, 3), (3, 2, 2), (2, 3, 3)):
            problems.append(compose_problem(rng, n, deg, terms, 12,
                                            default_cap=True))
        problems += [catalog_entry(slot, rng.randrange(VARIANTS))
                     for slot in SMALL_CATALOG]
    return problems


def generate(workload, seed):
    """The problem stream of one workload for one seed, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep-measure":
        problems = [_deep(rng, *slot) for slot in DEEP_SLOTS]
    elif workload == "jet-algebra":
        problems = _jet(rng)
    else:
        problems = _small(rng)
    problems = _interleave(problems, rng.randrange(len(problems)))
    for i, p in enumerate(problems):
        p["id"] = i
    return problems


def _interleave(problems, offset):
    """Stride through the slot list, which is grouped by cost tier, so
    that every stretch of the stream holds each tier in proportion and
    the calibration slices between calls sample the pass evenly."""
    n = len(problems)
    stride = next(s for s in (7, 11, 13, 17, 19) if n % s)
    return [problems[(offset + i * stride) % n] for i in range(n)]


def is_light(workload, problem):
    """Problems for the cold subprocess sample: each workload's cheapest
    command line problems, so the sample times start-up, not depth."""
    if problem["call"] != "cli":
        return False
    doc = problem["doc"]
    options = doc.get("options", {})
    if workload == "deep-measure":
        return doc["kind"] == "measure" and options.get("floor") == -400
    if workload == "jet-algebra":
        return doc["kind"] == "hx" or options.get("cap") == 24
    return True


def cold_sample(problems, workload, seed):
    rng = random.Random(f"cold:{workload}:{seed}")
    light = [p["id"] for p in problems if is_light(workload, p)]
    return [rng.choice(light) for _ in range(COLD_RUNS)]
