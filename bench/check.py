"""Reference answers for benchmark problems, independent of arcmeasure.

Nothing here imports the package under test.  Germ measures are checked
against the rational closed form of each stratum,

    [S] * u^-d * prod_i (u - 1) u^-k_i / (1 - u^-k_i),

expanded exactly with the recurrence ``c[i] += c[i - k]`` (rationality
of motivic measures, Denef-Loeser 1999).  Orders between measures are
decided exactly on those rational functions, compositions against a
naive dense ``Fraction`` product, and the remaining kinds against
stdout digests recorded from the seed implementation.

A spec is a JSON-able dict made by the generator; :func:`check` returns
``"ok"``, ``"undecided"`` (exit 5, precision exhausted) or ``"fail"``,
with a reason.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

LESS, EQUAL, GREATER = "Less", "Equal", "Greater"
IAA, INEQ, INCONCLUSIVE = ("InverseArcAnalytic", "MeasureInequality",
                           "Inconclusive")
EXIT_PRECISION = 5


# ---------------------------------------------------------------------------
# Laurent polynomials in u as {exponent: int}

def lp(pairs):
    return {int(e): int(c) for e, c in pairs if c}


def lp_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def stratum_fraction(stratum):
    """(numerator, contact exponents) of one stratum's rational measure."""
    num = lp_mul(lp(stratum["cls"]), {-stratum["d"]: 1})
    for k in stratum["ks"]:
        num = lp_mul(num, {1 - k: 1, -k: -1})
    return num, list(stratum["ks"])


def denominator(ks):
    den = {0: 1}
    for k in ks:
        den = lp_mul(den, {0: 1, -k: -1})
    return den


def measure_fraction(measure):
    """One fraction N / D for a measure spec (strata or an exact poly)."""
    if "poly" in measure:
        return lp(measure["poly"]), {0: 1}
    parts = [stratum_fraction(s) for s in measure["strata"]]
    num, den = {}, {0: 1}
    for i, (n, _) in enumerate(parts):
        for j, (_, ks) in enumerate(parts):
            if j != i:
                n = lp_mul(n, denominator(ks))
        num = lp_add(num, n)
        den = lp_mul(den, denominator(parts[i][1]))
    return num, den


def exact_order(left, right):
    """Order of two measure specs, as ``leq_order`` states it.

    Both denominators are products of ``1 - u^-k`` with leading term
    +1, so the sign of the leading coefficient of ``N_r D_l - N_l D_r``
    is the sign of ``right - left``.
    """
    nl, dl = measure_fraction(left)
    nr, dr = measure_fraction(right)
    diff = lp_add(lp_mul(nr, dl), lp_mul(nl, dr), sign=-1)
    if not diff:
        return EQUAL
    return LESS if diff[max(diff)] > 0 else GREATER


def expand_measure(strata, floor):
    """Coefficients above ``floor`` and the floor the output must carry.

    A stratum with an empty index set contributes an exact polynomial;
    the sum is exact (floor ``None``) only when every stratum is.
    """
    coeffs = {}
    exact = True
    for s in strata:
        num, ks = stratum_fraction(s)
        if not ks:
            coeffs = lp_add(coeffs, num)
            continue
        exact = False
        top = max(num)
        size = top - floor
        if size <= 0:
            continue
        inv = [0] * size  # 1 / prod(1 - x^k) in x = u^-1
        inv[0] = 1
        for k in ks:
            for i in range(k, size):
                inv[i] += inv[i - k]
        part = {}
        for e, c in num.items():
            for j in range(e - floor):
                if inv[j]:
                    part[e - j] = part.get(e - j, 0) + c * inv[j]
        coeffs = lp_add(coeffs, part)
    if exact:
        return coeffs, None
    return {e: c for e, c in coeffs.items() if e > floor}, floor


# ---------------------------------------------------------------------------
# parsing program output

_U_TERM = re.compile(r"(\d+)|(?:(\d+)\*)?u(?:\^(-?\d+))?")
_T_TERM = re.compile(r"(\d+(?:/\d+)?)|(?:(\d+(?:/\d+)?)\*)?t(?:\^(\d+))?")


def parse_series(text):
    """``u^-2 - 3*u^-5 + O(u^-40)`` to ({exponent: coefficient}, floor)."""
    text = text.strip()
    if text == "0":
        return {}, None
    tokens = text.split(" ")
    if tokens[0].startswith("-") and tokens[0] != "-":
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2:
        raise ValueError(f"unbalanced terms in {text[:60]!r}")
    coeffs, floor = {}, None
    for i in range(0, len(tokens), 2):
        sign, body = tokens[i], tokens[i + 1]
        if sign not in "+-" or floor is not None:
            raise ValueError(f"bad term {body!r}")
        m = re.fullmatch(r"O\(u\^(-?\d+)\)", body)
        if m:
            if sign != "+":
                raise ValueError("negated O term")
            floor = int(m.group(1))
            continue
        m = _U_TERM.fullmatch(body)
        if not m:
            raise ValueError(f"bad term {body!r}")
        if m.group(1):
            c, e = int(m.group(1)), 0
        else:
            c = int(m.group(2)) if m.group(2) else 1
            e = int(m.group(3)) if m.group(3) else 1
        if e in coeffs:
            raise ValueError(f"repeated exponent {e}")
        coeffs[e] = c if sign == "+" else -c
    return coeffs, floor


def parse_trunc(text):
    """``1 - 3/2*t^2 + O(t^13)`` to ({exponent: Fraction}, cap)."""
    tokens = text.strip().split(" ")
    if tokens[0].startswith("-"):
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    coeffs, cap = {}, None
    for i in range(0, len(tokens), 2):
        sign, body = tokens[i], tokens[i + 1]
        m = re.fullmatch(r"O\(t\^(\d+)\)", body)
        if m:
            cap = int(m.group(1)) - 1
            continue
        m = _T_TERM.fullmatch(body)
        if not m:
            raise ValueError(f"bad term {body!r}")
        if m.group(1):
            c, e = Fraction(m.group(1)), 0
        else:
            c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            e = int(m.group(3)) if m.group(3) else 1
        coeffs[e] = c if sign == "+" else -c
    if cap is None:
        raise ValueError("missing O(t^n) tail")
    return coeffs, cap


# ---------------------------------------------------------------------------
# naive composition

def naive_compose(f_terms, arc, cap):
    """Value of a polynomial along an arc, modulo t^(cap+1), densely."""
    rows = [[Fraction(c) for c in row] + [Fraction(0)] * (cap + 1 - len(row))
            for row in arc]
    total = [Fraction(0)] * (cap + 1)
    for exps, coeff in f_terms:
        term = [Fraction(coeff)] + [Fraction(0)] * cap
        for row, k in zip(rows, exps):
            for _ in range(k):
                nxt = [Fraction(0)] * (cap + 1)
                for i in range(cap + 1):
                    for j in range(cap + 1 - i):
                        nxt[i + j] += term[i] * row[j]
                term = nxt
        total = [a + b for a, b in zip(total, term)]
    return {e: c for e, c in enumerate(total) if c}


# ---------------------------------------------------------------------------
# check-map verdicts

def _target_measure(diagram):
    return {"strata": [{"cls": s["cls"], "d": diagram["d"],
                        "ks": [1 + q for q in s["q"]]}
                       for s in diagram["strata"]]}


def expected_check_map(diagram, mu_x, mu_y):
    """Conclusions the two theorem reports must reach, from exact orders."""
    strata = diagram["strata"]
    below = all(q <= p for s in strata for p, q in zip(s["p"], s["q"]))
    above = all(p <= q for s in strata for p, q in zip(s["p"], s["q"]))
    order = exact_order(mu_x, mu_y)
    inverse = INCONCLUSIVE
    if order == EQUAL and below:
        image = exact_order(_target_measure(diagram), mu_y)
        if image == EQUAL and above:
            inverse = IAA
    reports = {"inverse_mapping": inverse}
    if inverse != IAA:
        ok = below and order in (LESS, EQUAL)
        reports["measure_comparison"] = INEQ if ok else INCONCLUSIVE
    return order, reports


# ---------------------------------------------------------------------------

def digest(stdout):
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check(spec, code, stdout, digests=None):
    """Judge one run: (status, reason) with status ok/undecided/fail."""
    if code is None:
        return "fail", "crashed"
    kind = spec["check"]
    try:
        if kind == "series":
            return _check_series(spec, code, stdout)
        if kind == "order":
            return _check_order(spec, code, stdout)
        if kind == "check-map":
            return _check_map(spec, code, stdout)
        if kind == "compose":
            return _check_compose(spec, code, stdout)
        if kind == "digest":
            want = (digests or {}).get(spec["key"])
            if want is None:
                return "fail", f"no recorded digest for {spec['key']}"
            if code != 0:
                return "fail", f"exit {code}, expected 0"
            if digest(stdout) != want:
                return "fail", "stdout digest differs from the record"
            return "ok", ""
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "fail", f"unreadable output: {exc}"
    raise ValueError(f"unknown check {kind!r}")


def _check_series(spec, code, stdout):
    if code != 0:
        return "fail", f"exit {code}, expected 0"
    want, want_floor = expand_measure(spec["strata"], spec["floor"])
    got, got_floor = parse_series(stdout)
    if got_floor != want_floor:
        return "fail", f"floor {got_floor}, expected {want_floor}"
    for e in sorted(set(want) | set(got), reverse=True):
        if want.get(e, 0) != got.get(e, 0):
            return "fail", (f"coefficient of u^{e} is {got.get(e, 0)}, "
                            f"expected {want.get(e, 0)}")
    return "ok", ""


def _check_order(spec, code, stdout):
    if code == EXIT_PRECISION:
        return "undecided", "precision exhausted"
    if code != 0:
        return "fail", f"exit {code}, expected 0 or 5"
    want = exact_order(spec["left"], spec["right"])
    got = stdout.strip()
    if got != want:
        return "fail", f"order {got}, expected {want}"
    return "ok", ""


def _check_map(spec, code, stdout):
    if code == EXIT_PRECISION:
        return "undecided", "precision exhausted"
    if code not in (0, 4):
        return "fail", f"exit {code}, expected 0, 4 or 5"
    order, reports = expected_check_map(spec["diagram"], spec["mu_x"],
                                        spec["mu_y"])
    doc = json.loads(stdout)
    conclusion = reports.get("measure_comparison",
                             reports["inverse_mapping"])
    if doc["conclusion"] != conclusion:
        return "fail", f"conclusion {doc['conclusion']}, expected {conclusion}"
    want_code = 4 if conclusion == INCONCLUSIVE else 0
    if code != want_code:
        return "fail", f"exit {code}, expected {want_code}"
    if sorted(doc["reports"]) != sorted(reports):
        return "fail", f"reports {sorted(doc['reports'])}"
    for name, want in reports.items():
        report = doc["reports"][name]
        if report["conclusion"] != want:
            return "fail", f"{name} concluded {report['conclusion']}"
        got_order = report["certificates"].get("measure_order", order)
        if got_order != order:
            return "fail", f"{name} measure_order {got_order}, expected {order}"
    return "ok", ""


def _check_compose(spec, code, stdout):
    if code != 0:
        return "fail", f"exit {code}, expected 0"
    got, cap = parse_trunc(stdout)
    if cap != spec["cap"]:
        return "fail", f"cap {cap}, expected {spec['cap']}"
    want = naive_compose(spec["f"], spec["arc"], spec["cap"])
    if got != want:
        bad = min(e for e in set(got) | set(want)
                  if got.get(e) != want.get(e))
        return "fail", (f"coefficient of t^{bad} is {got.get(bad, 0)}, "
                        f"expected {want.get(bad, 0)}")
    return "ok", ""
