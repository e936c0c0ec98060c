"""cli-oneshot: about a hundred one-shot `python -m cycwitt.cli` calls.

Every subcommand runs in text and in --json form, one call after the
other, each in a fresh interpreter that imports every module and starts
with cold caches.  So interpreter start, import and cold arith dominate,
and speed-ups of the warm library barely show.  The list includes
lambda-table 40 (its JSON object is built even for text output),
trace/f0/tm of phi(p*q) for p*q near 10^12 with known primes, a
well-formed but non-associative table that must be refused with exit 2,
and four inputs that today end in a traceback (known faults).

The seed draws the elements, exponents, matrices, ideal generators and
theorem1 units; the subcommands, sizes and levels are fixed, so every
seed costs about the same.

Checks: JSON values against stdlib computations from the known
factorizations (Mobius, totient, Ramanujan sums, characters t_m); each
text output must parse back to the value of its JSON twin.
"""

from __future__ import annotations

import ast
import json
import math
import os
import random
import re
import subprocess
import sys

from .. import calib, oracle
from ..common import Task

# primes near 10^6: phi(p*q) costs trial division up to p in arith.factor
BIG_PRIMES = ((999983, 1000003), (999979, 1000033), (999961, 1000037))
LAMBDA_TABLE_MAX = 40
LAMBDA_LEVELS = (28, 39, 45)

VALID_TABLE = "size 3\nname maxmin3\nnames 0 h 1\nzero 0\none 2\nadd\n0 1 2\n1 1 2\n2 2 2\nmul\n0 0 0\n0 1 1\n0 1 2\n"
VALID_ADD = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
VALID_MUL = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
NONASSOC_TABLE = "size 3\nadd\n0 1 2\n1 0 0\n2 0 0\nmul\n0 0 0\n0 1 2\n0 2 0\n"
# known faults: each must end in exit 2 with one "error:" line
FAULT_TABLES = {
    "truncated": "size 2\nadd\n0 1\n1 1\nmul\n0 0\n",
    "nosize": "zero 0\none 1\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n",
    "zero5": "size 2\nzero 5\none 1\nadd\n0 1\n1 1\nmul\n0 0\n0 1\n",
}
TROPICAL4 = (
    [[max(x, y) for y in range(4)] for x in range(4)],
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]],
    ["0", "eps", "1", "top"],
)


# -- parsing the text forms ----------------------------------------------------

def _signed_terms(text):
    """Split '-a + b - c' at top-level spaces into [(sign, body), ...]."""
    tokens, depth, cur = [], 0, ""
    for ch in text.strip():
        depth += (ch == "(") - (ch == ")")
        if ch == " " and depth == 0:
            tokens.append(cur)
            cur = ""
        else:
            cur += ch
    tokens.append(cur)
    first = tokens[0]
    out = [(-1, first[1:]) if first.startswith("-") else (1, first)]
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in "+-":
            raise ValueError(f"bad separator {sign!r}")
        out.append((-1 if sign == "-" else 1, body))
    return out


def parse_witt(text):
    """Canonical or descending Witt text into sorted [[index, coeff], ...]."""
    acc = {}
    if text.strip() == "0":
        return []
    for sign, body in _signed_terms(text):
        m = re.fullmatch(r"(?:(\d+)\*)?phi\((\d+)\)|(\d+)", body)
        if not m:
            raise ValueError(f"bad term {body!r}")
        if m.group(3):
            n, c = 1, int(m.group(3))
        else:
            n, c = int(m.group(2)), int(m.group(1) or 1)
        acc[n] = acc.get(n, 0) + sign * c
    return [[n, c] for n, c in sorted(acc.items()) if c]


def parse_series(text, degree):
    coeffs = [[] for _ in range(degree + 1)]
    for sign, body in _signed_terms(text):
        m = re.fullmatch(r"t(?:\^(\d+))?(?:\*(.*))?", body)
        if not m:
            k, value = 0, parse_witt(body)
        else:
            k = int(m.group(1) or 1)
            rest = m.group(2)
            if rest is None:
                value = [[1, 1]]
            elif rest.startswith("("):
                value = parse_witt(rest[1:-1])
            else:
                value = parse_witt(rest)
        coeffs[k] = [[n, sign * c] for n, c in value]
    return coeffs


def parse_poly(text):
    out = {}
    for sign, body in _signed_terms(text):
        m = re.fullmatch(r"(\d+)|(?:(\d+)\*)?x(?:\^(\d+))?", body)
        if not m:
            raise ValueError(f"bad polynomial term {body!r}")
        if m.group(1):
            out[0] = sign * int(m.group(1))
        else:
            out[int(m.group(3) or 1)] = sign * int(m.group(2) or 1)
    return [out.get(k, 0) for k in range(max(out) + 1)]


def _names_set(text, names):
    inner = text.strip()[1:-1]
    return sorted(names.index(s.strip()) for s in inner.split(",")) if inner.strip() else []


# -- reference values -------------------------------------------------------

def _fac(n, known):
    return known.get(n) or oracle.factorize(n)


def _divisor_closure(indices):
    out = set()
    for L in indices:
        out.update(oracle.divisors_of(oracle.factorize(L)))
    return sorted(out)


def _fmt_witt(pairs):
    parts = []
    for n, c in pairs:
        body = (str(abs(c)) if n == 1 else
                f"phi({n})" if abs(c) == 1 else f"{abs(c)}*phi({n})")
        parts.append(("-" if c < 0 else "") + body if not parts else
                     ("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _element(rng, terms=3, top=60):
    pairs = {}
    while len(pairs) < terms:
        pairs[rng.randint(1, top)] = rng.choice((-3, -2, -1, 1, 2, 3, 4))
    items = sorted(pairs.items())
    items[0] = (items[0][0], abs(items[0][1]))  # no leading minus sign
    return items


def _conjugated(rng, blocks):
    a: list[list[int]] = []
    for b in blocks:
        a = oracle.direct_sum(a, b)
    return oracle.conjugate(a, rng, 2 * len(a))


def _mat_text(a):
    return ";".join(",".join(map(str, r)) for r in a)


def _rig_tables(rig):
    """(add, mul, names) of a rig the benchmark can describe itself."""
    if rig == "boolean":
        return [[0, 1], [1, 1]], [[0, 0], [0, 1]], ["0", "1"]
    if rig == "tropical4":
        return TROPICAL4
    if rig.startswith("zmod:"):
        n = int(rig[5:])
        r = range(n)
        return ([[(x + y) % n for y in r] for x in r], [[x * y % n for y in r] for x in r],
                [str(x) for x in r])
    return VALID_ADD, VALID_MUL, ["0", "h", "1"]


# -- the call list ------------------------------------------------------------

class _Calls:
    """Builds paired text/JSON tasks; a text task compares with its twin."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.tasks: list[Task] = []
        self.outputs: dict[int, tuple] = {}

    def _runner(self, args, slot):
        ctx = self.ctx

        def run():
            out = ctx.call(args, slot)
            self.outputs[slot] = out
            return out

        return run

    def pair(self, label, args, validate, parse_text, project=lambda obj: obj):
        """validate(obj) checks the JSON value; parse_text(text, obj) must
        equal project(obj) for the text form."""
        j_slot = len(self.tasks)
        self.tasks.append(Task(f"{label} --json", self._runner(["--json", *args], j_slot),
                               lambda out: _check_json(out, validate)))
        t_slot = len(self.tasks)
        self.tasks.append(Task(
            label, self._runner(list(args), t_slot),
            lambda out: _check_text(out, self.outputs.get(j_slot), parse_text, project),
        ))

    def single(self, label, args, check, known_fault=False):
        slot = len(self.tasks)
        self.tasks.append(Task(label, self._runner(list(args), slot), check, known_fault))


def _ok_output(out):
    rc, stdout, stderr = out
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[-200:]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[-200:]}"
    return None


def _check_json(out, validate):
    msg = _ok_output(out)
    if msg:
        return msg
    try:
        obj = json.loads(out[1])
    except ValueError:
        return "stdout is not one JSON object"
    return validate(obj)


def _check_text(out, twin, parse_text, project):
    msg = _ok_output(out)
    if msg:
        return msg
    if twin is None or twin[0] != 0:
        return "the JSON twin failed, nothing to compare with"
    obj = json.loads(twin[1])
    try:
        got = parse_text(out[1], obj)
    except (ValueError, IndexError, KeyError, SyntaxError, AttributeError) as exc:
        return f"text output does not parse: {exc}"
    return None if got == project(obj) else f"text form {got!r} != JSON form {project(obj)!r}"


def _fault_check(out):
    rc, _, stderr = out
    lines = stderr.strip().splitlines()
    if rc == 2 and len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in stderr:
        return None
    return f"exit {rc} instead of 2 with one error line: {lines[-1] if lines else ''}"


def _expect(value_of):
    """Validator for {"value": int} outputs."""
    return lambda obj: None if obj == {"value": value_of} else f"{obj} != value {value_of}"


def _int_text(text, obj):
    return {"value": int(text)}


def _witt_text(text, obj):
    return {"result": parse_witt(text)}


def build(seed: int, ctx) -> list[Task]:
    rng = random.Random(seed)
    calls = _Calls(ctx)
    known: dict[int, dict[int, int]] = {}
    for p, q in BIG_PRIMES:
        known[p * q] = {p: 1, q: 1}

    def chars(pairs, points):
        return {m: oracle.character(pairs, m, known) for m in points}

    # products and inner products
    for _ in range(5):
        a, b = _element(rng), _element(rng)
        pts = _divisor_closure([math.lcm(n, m) for n, _ in a for m, _ in b])
        ca, cb = chars(a, pts), chars(b, pts)
        want = {m: ca[m] * cb[m] for m in pts}
        calls.pair(f"mul {_fmt_witt(a)} by {_fmt_witt(b)}", ["mul", _fmt_witt(a), _fmt_witt(b)],
                   lambda obj, pts=pts, want=want: None if oracle.is_element(obj["result"], pts, want)
                   else "product has the wrong characters", _witt_text)
    for _ in range(2):
        a, b = _element(rng), _element(rng)
        bd = dict(b)
        value = sum(c * bd.get(n, 0) * oracle.totient(oracle.factorize(n)) for n, c in a)
        calls.pair("inner", ["inner", _fmt_witt(a), _fmt_witt(b)], _expect(value), _int_text)
    # scalar projections, with the 10^12 semiprimes for trace/f0/tm
    p, q = BIG_PRIMES[rng.randrange(len(BIG_PRIMES))]
    big = [(p * q, 1)]
    elems = [_element(rng), _element(rng)]
    for a in elems + [big]:
        calls.pair("trace", ["trace", _fmt_witt(a)],
                   _expect(sum(c * oracle.mobius(_fac(n, known)) for n, c in a)), _int_text)
        calls.pair("f0", ["f0", _fmt_witt(a)],
                   _expect(sum(c * oracle.totient(_fac(n, known)) for n, c in a)), _int_text)
        m = rng.randint(1, 40)
        calls.pair(f"tm {m}", ["tm", str(m), _fmt_witt(a)],
                   _expect(oracle.character(a, m, known)), _int_text)
    for a in elems:
        calls.pair("integral", ["integral", _fmt_witt(a)], _expect(dict(a).get(1, 0)), _int_text)
    # power and index operators
    for _ in range(3):
        a, m = _element(rng), rng.randint(2, 12)
        pts = _divisor_closure([n for n, _ in a])
        want = {k: oracle.character(a, k * m, known) for k in pts}
        calls.pair(f"frob {m}", ["frob", str(m), _fmt_witt(a)],
                   lambda obj, pts=pts, want=want: None if oracle.is_element(obj["result"], pts, want)
                   else "F_m output has the wrong characters", _witt_text)
    for _ in range(2):
        a, m = _element(rng), rng.randint(2, 9)
        want = [[m * n, c] for n, c in a]
        calls.pair(f"versch {m}", ["versch", str(m), _fmt_witt(a)],
                   lambda obj, want=want: None if obj == {"result": want} else "wrong V_m", _witt_text)
    # lambda series
    for n in LAMBDA_LEVELS + (None,):
        if n is None:
            args, label = ["lambda-table", str(LAMBDA_TABLE_MAX)], f"lambda-table {LAMBDA_TABLE_MAX}"
            calls.pair(label, args, _check_lambda_table, _parse_lambda_table)
        else:
            calls.pair(f"lambda {n}", ["lambda", str(n)],
                       lambda obj, n=n: _lambda_problem(n, obj),
                       lambda text, obj: parse_series(text, len(obj["coefficients"]) - 1),
                       lambda obj: obj["coefficients"])
    calls.pair("gamma-filtration 12 3", ["gamma-filtration", "--level", "12", "--depth", "3"],
               lambda obj: oracle.filtration_problem(12, 3, obj["divisors"],
                                                     [lat["basis"] for lat in obj["lattices"]]),
               _parse_gamma)
    for n, m in ((12, 16), (28, 24)):
        rows = [[oracle.ramanujan(i, j) for j in range(1, m + 1)] for i in range(1, n + 1)]
        calls.pair(f"ramanujan {n}x{m}", ["ramanujan", "--n", str(n), "--m-max", str(m)],
                   lambda obj, rows=rows: None if obj["rows"] == rows else "wrong Ramanujan sums",
                   _parse_ramanujan, lambda obj: obj["rows"])
    for big_n in (24, 36):
        pairs = len(oracle.divisors_of(oracle.factorize(big_n))) ** 2
        calls.pair(f"parseval {big_n}", ["parseval", str(big_n)],
                   lambda obj, pairs=pairs: None if obj["ok"] and obj["pairs_checked"] == pairs
                   and not obj["failures"] else "parseval report is wrong",
                   _parse_parseval, lambda obj: [obj["N"], obj["pairs_checked"], obj["ok"]])
    # integer matrices
    for dim in (3, 5):
        a = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        calls.pair(f"charpoly dim={dim}", ["charpoly", "--", _mat_text(a)],
                   lambda obj, a=a: _charpoly_problem(a, obj["coefficients"]),
                   lambda text, obj: parse_poly(text), lambda obj: obj["coefficients"])
    for _ in range(2):
        blocks = rng.sample([3, 4, 5, 6, 8, 10, 12], 2)
        a = _conjugated(rng, [oracle.companion(d) for d in blocks])
        want = [[d, 1] for d in sorted(blocks)]
        calls.pair(f"wittclass {blocks}", ["wittclass", "--", _mat_text(a)],
                   lambda obj, want=want: None if obj == {"result": want} else "wrong class",
                   _witt_text)
    outside = _conjugated(rng, [[[0, -1], [1, 3]], oracle.companion(rng.choice((3, 4, 6)))])
    for prefix in ([], ["--json"]):
        calls.single(f"wittclass outside the disc {' '.join(prefix)}",
                     [*prefix, "wittclass", "--", _mat_text(outside)],
                     lambda out: None if out[0] == 1 and "not a unit-spectrum" in out[2]
                     and oracle.growth_certificate(outside) else "must exit 1 (verification failure)")
    for rows, cols, bound in ((2, 2, 2), (2, 3, 1)):
        count = sum(math.comb(rows, k) * math.comb(cols, k) * math.factorial(k) * 2**k
                    for k in range(min(rows, cols) + 1))
        calls.pair(f"sections {rows}x{cols} bound {bound}",
                   ["sections", "--rows", str(rows), "--cols", str(cols), "--bound", str(bound)],
                   lambda obj, count=count: None if obj["ok"] and obj["count"] == count
                   and all(_signed_subperm(m) for m in obj["matrices"])
                   else "contractions are not the signed sub-permutations",
                   _parse_sections, lambda obj: [obj["count"], obj["ok"]])
    # finite rigs, including user tables
    table = ctx.write_file("valid.table", VALID_TABLE)
    for rig in ("zmod:36", "boolean", "tropical4", f"file:{table}"):
        add, mul, names = _rig_tables(rig)
        if rig.startswith("zmod:"):
            n = len(add)
            primes = sorted([x for x in range(0, n, p)] for p in oracle.factorize(n))
        else:
            primes = oracle.primes(add, mul, 0, 2 if rig != "boolean" else 1)
        calls.pair(f"spec {rig.split('/')[-1]}", ["spec", "--rig", rig],
                   lambda obj, primes=primes: None if sorted(obj["primes"]) == primes else "wrong primes",
                   lambda text, obj, names=names: sorted(
                       _names_set(line, names) for line in text.splitlines()[1:]),
                   lambda obj: sorted(obj["primes"]))
    for n in (24, 40):
        g = rng.randrange(0, n)
        d = math.gcd(g, n)
        rad = math.prod(oracle.factorize(d)) if d > 1 else 1
        want = {"rig": f"zmod:{n}", "ideal": list(range(0, n, d)),
                "radical": list(range(0, n, rad)), "agrees": True}
        calls.pair(f"radical zmod:{n} ({g})", ["radical", "--rig", f"zmod:{n}", "--ideal", str(g)],
                   lambda obj, want=want: None if obj == want else "wrong ideal or radical",
                   _parse_radical, lambda obj: [obj["ideal"], obj["radical"]])
    for n in (12, 20):
        p0 = min(oracle.factorize(n))
        s = p0 * rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1]) % n
        frac = max(d for d in oracle.divisors_of(oracle.factorize(n)) if math.gcd(d, s) == 1)
        calls.pair(f"theorem1 zmod:{n} s={s}", ["theorem1", "--rig", f"zmod:{n}", "--s", str(s)],
                   lambda obj, frac=frac: None if obj["ok"] and obj["fractions"] == frac
                   else "structure-sheaf check is wrong",
                   _parse_theorem1, lambda obj: [obj["fractions"], obj["local_families"], obj["ok"]])
    nonassoc = ctx.write_file("nonassoc.table", NONASSOC_TABLE)
    for prefix in ([], ["--json"]):
        calls.single(f"spec of a non-associative table {' '.join(prefix)}",
                     [*prefix, "spec", "--rig", f"file:{nonassoc}"],
                     lambda out: None if out[0] == 2 and "associative" in out[2]
                     and "Traceback" not in out[2] else "a non-associative table must exit 2")
    # known faults (seed-independent inputs)
    for name, text in FAULT_TABLES.items():
        path = ctx.write_file(f"{name}.table", text)
        calls.single(f"known fault: spec of the {name} table", ["spec", "--rig", f"file:{path}"],
                     _fault_check, known_fault=True)
    calls.single("known fault: radical --rig zmod:0", ["radical", "--rig", "zmod:0"],
                 _fault_check, known_fault=True)
    return calls.tasks


def _signed_subperm(m):
    return all(sum(x != 0 for x in r) <= 1 for r in m) and all(
        sum(x != 0 for x in c) <= 1 for c in zip(*m)) and all(x in (-1, 0, 1) for r in m for x in r)


def _lambda_problem(n, obj):
    coeffs = obj["coefficients"]
    degree = oracle.totient(oracle.factorize(n))
    if obj.get("n") != n or len(coeffs) != degree + 1:
        return f"lambda_t(phi({n})) has the wrong degree"
    for m in oracle.divisors_of(oracle.factorize(n)):
        want = oracle.series_characters(n, m, degree)
        for k, pairs in enumerate(coeffs):
            if any(n % d for d, _ in pairs) or oracle.character(pairs, m) != want[k]:
                return f"coefficient {k} of lambda_t(phi({n})) is wrong"
    return None


def _check_lambda_table(obj):
    table = obj["table"]
    if [row["n"] for row in table] != list(range(1, LAMBDA_TABLE_MAX + 1)):
        return "lambda table rows are not n = 1..max"
    for row in table:
        msg = _lambda_problem(row["n"], row)
        if msg:
            return msg
    return None


def _parse_lambda_table(text, obj):
    out = []
    for line, row in zip(text.splitlines(), obj["table"]):
        m = re.fullmatch(r"lambda_t\(phi\((\d+)\)\) = (.*)", line)
        out.append({"n": int(m.group(1)),
                    "coefficients": parse_series(m.group(2), len(row["coefficients"]) - 1)})
    return {"table": out}


def _parse_gamma(text, obj):
    lines = text.splitlines()
    m = re.fullmatch(r"gamma filtration on the divisor span of (\d+) \(divisors (\[.*\])\), depth (\d+)",
                     lines[0])
    lattices = []
    for line in lines[1:]:
        head = re.fullmatch(r"I_(\d+): rank (\d+)", line)
        if head:
            lattices.append({"index": int(head.group(1)), "rank": int(head.group(2)), "basis": []})
        else:
            lattices[-1]["basis"].append(ast.literal_eval(line.strip()))
    return {"level": int(m.group(1)), "divisors": ast.literal_eval(m.group(2)),
            "depth": int(m.group(3)), "lattices": lattices}


def _parse_ramanujan(text, obj):
    return [[int(v) for v in line.split("|")[1].split()] for line in text.splitlines()[2:]]


def _parse_parseval(text, obj):
    m = re.fullmatch(r"parseval N=(\d+): (\d+) divisor pairs checked, .*: (PASS|FAIL.*)\n", text)
    return [int(m.group(1)), int(m.group(2)), m.group(3) == "PASS"]


def _parse_sections(text, obj):
    m = re.search(r": (\d+) contraction matrices; .*: (PASS|FAIL.*)$", text.strip())
    return [int(m.group(1)), m.group(2) == "PASS"]


def _parse_radical(text, obj):
    m = re.fullmatch(r"radical over \S+ of ideal (\{.*?\}): (\{.*?\}) \(power test == prime intersection\)\n",
                     text)
    names = [str(x) for x in range(int(obj["rig"][5:]))]
    return [_names_set(m.group(1), names), _names_set(m.group(2), names)]


def _parse_theorem1(text, obj):
    m = re.search(r"\|fractions\|=(\d+), \|local families\|=(\d+): (PASS|FAIL.*)$", text.strip())
    return [int(m.group(1)), int(m.group(2)), m.group(3) == "PASS"]


def _charpoly_problem(a, coeffs):
    for k in range(len(a) + 1):
        if sum(c * k**i for i, c in enumerate(coeffs)) != oracle.det_one_minus(a, k):
            return f"det(1 - {k}A) disagrees"
    return None


class Context:
    """How a round calls the CLI: one fresh interpreter per call."""

    def __init__(self, root, workdir, traced):
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def write_file(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def call(self, args, slot):
        if self.traced:
            cmd = [sys.executable, str(self.root / "perfbench" / "clichild.py"),
                   str(self.workdir / f"child-{slot}.json"), *args]
        else:
            cmd = [sys.executable, "-m", "cycwitt.cli", *args]
        p = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                           text=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def calibrate(self):
        """Host factor for the call just made: a bare interpreter launch, as it is launched."""
        return calib.launch_factor(env=self.env, cwd=self.root)
