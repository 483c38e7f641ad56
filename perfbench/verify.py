"""Output checks that do not trust the program, and their corruption self-test.

Every check reads the group's tensors straight from its JSON file and
recomputes what the output claims with plain numpy.  A check returns the
list of problems it found; an empty list means the output is accepted.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

TOL = 1e-8


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def load_tensors(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {k: _complex(doc[k]) for k in
            ("mult", "unit", "comult", "counit", "star")}


def _sup(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


# ----------------------------------------------------------------------
# qglab check --format json
# ----------------------------------------------------------------------

# the paper's statements that a `qglab check` report must cover
CORE_CHECKS = ("axioms", "enumeration", "pentagon", "lattice-order-and-tables",
               "join-two-paths", "state-coideal-bijection", "duality-exchange")


def check_report(text: str, n_states: int) -> list[str]:
    """Every property check passed and enumeration found n_states states."""
    doc = json.loads(text)
    problems = [f"check {r['key']} failed ({r['detail']})"
                for r in doc if not r["passed"]]
    by_key = {r["key"]: r for r in doc}
    problems += [f"check {k} missing" for k in CORE_CHECKS if k not in by_key]
    enum = by_key.get("enumeration", {"detail": ""})
    if not enum["detail"].startswith(f"{n_states} states"):
        problems.append(f"enumeration does not report {n_states} states")
    return problems


# ----------------------------------------------------------------------
# idempotent states
# ----------------------------------------------------------------------

def state_problems(t: dict, coeffs: np.ndarray) -> list[str]:
    """Convolution-idempotent, value 1 on the unit, positive."""
    problems = []
    conv = np.einsum("kij,i,j->k", t["comult"], coeffs, coeffs)
    if _sup(conv - coeffs) > TOL:
        problems.append(f"not idempotent ({_sup(conv - coeffs):.1e})")
    if abs(coeffs @ t["unit"] - 1) > TOL:
        problems.append(f"value {coeffs @ t['unit']:.6f} on the unit")
    gram = _gram(t, coeffs)
    if _sup(gram - gram.conj().T) > TOL or np.linalg.eigvalsh(
            (gram + gram.conj().T) / 2)[0] < -TOL:
        problems.append("not positive")
    return problems


def _gram(t: dict, coeffs: np.ndarray) -> np.ndarray:
    """[phi(e_i* e_j)]; phi is positive iff this is positive semidefinite."""
    return np.einsum("ai,ajk,k->ij", t["star"], t["mult"], coeffs)


def is_haar_type(t: dict, coeffs: np.ndarray) -> bool:
    """The null space {x : phi(x* x) = 0} is a two-sided ideal."""
    gram = _gram(t, coeffs)
    evals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    null = vecs[:, evals < 1e-9]
    right = np.einsum("ia,ijk->ajk", null, t["mult"]).reshape(-1, len(coeffs))
    return _sup(right.conj() @ gram @ right.T) < 1e-9 if null.size else True


def _states(idem_text: str) -> list[dict]:
    return json.loads(idem_text)["states"]


def group_table(t: dict, family: str) -> list[list[int]]:
    """The classical group behind a function or group algebra."""
    if family == "function":   # comult[st, s, t] = 1
        return np.argmax(np.abs(t["comult"]), axis=0).tolist()
    return np.argmax(np.abs(t["mult"]), axis=2).tolist()   # mult[g, h, gh] = 1


def subgroups(table) -> list[frozenset[int]]:
    """All subgroups, by trying every subset (orders up to 6 here)."""
    n = len(table)
    e = next(x for x in range(n) if all(table[x][y] == y for y in range(n)))
    found = []
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            s = set(subset)
            if e in s and all(table[a][b] in s for a in s for b in s):
                found.append(frozenset(s))
    return found


def check_builtin_states(idem_text: str, t: dict, family: str) -> list[str]:
    """One state per subgroup: the uniform measure or the indicator."""
    subs = subgroups(group_table(t, family))
    states = [_complex(s["coeffs"]) for s in _states(idem_text)]
    problems = []
    if len(states) != len(subs):
        problems.append(f"{len(states)} states for {len(subs)} subgroups")
    n = len(t["unit"])
    for h in subs:
        expected = np.zeros(n, dtype=complex)
        expected[list(h)] = 1.0 / len(h) if family == "function" else 1.0
        hits = sum(_sup(c - expected) < TOL for c in states)
        if hits != 1:
            problems.append(f"subgroup {sorted(h)} matched by {hits} states")
    for c in states:
        problems += state_problems(t, c)
    return problems


KP_COIDEAL_DIMS = [1, 2, 2, 2, 4, 4, 4, 8]


def check_kp_states(idem_text: str, t: dict) -> list[str]:
    """8 distinct states, coideal dims [1,2,2,2,4,4,4,8], two not of Haar type."""
    states = _states(idem_text)
    problems = []
    dims = sorted(s["coideal_dim"] for s in states)
    if dims != KP_COIDEAL_DIMS:
        problems.append(f"coideal dimensions {dims}")
    coeffs = [_complex(s["coeffs"]) for s in states]
    for a, b in itertools.combinations(coeffs, 2):
        if _sup(a - b) < 1e-6:
            problems.append("two states coincide")
    flags = [s["haar_type"] for s in states]
    if flags.count(False) != 2:
        problems.append(f"{flags.count(False)} states not of Haar type")
    for s, c in zip(states, coeffs):
        problems += [f"{s['name']}: {p}" for p in state_problems(t, c)]
        if is_haar_type(t, c) != s["haar_type"]:
            problems.append(f"{s['name']}: Haar-type flag is wrong")
    return problems


# ----------------------------------------------------------------------
# qglab validate / qglab dual
# ----------------------------------------------------------------------

AXIOMS = ("associativity", "coassociativity", "antipode-axiom",
          "comult-multiplicative", "haar-left-invariant", "gram-positive")


def check_validate(text: str) -> list[str]:
    doc = json.loads(text)
    problems = [f"axiom {c['name']} failed" for c in doc["checks"]
                if not c["passed"] or not c["residual"] < doc["tol"]]
    names = {c["name"] for c in doc["checks"]}
    problems += [f"axiom {a} not checked" for a in AXIOMS if a not in names]
    if not doc["passed"]:
        problems.append("report does not pass")
    return problems


def _galois(t: dict, kind: str) -> np.ndarray:
    """a (x) b -> coproduct(a)(1 (x) b), or coproduct(b)(a (x) 1)."""
    d, m = t["comult"], t["mult"]
    n = len(t["unit"])
    if kind == "coproduct-first-factor":
        g = np.einsum("ipq,qjr->prij", d, m)
    else:
        g = np.einsum("jpq,ipr->rqij", d, m)
    return g.reshape(n * n, n * n)


def pentagon_residual(w: np.ndarray, n: int, rng) -> float:
    """|W12 W13 W23 - W23 W12| on random vectors, by leg contractions."""
    w4 = w.reshape(n, n, n, n)
    worst = 0.0
    for _ in range(3):
        x = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        w23 = np.einsum("bcde,ade->abc", w4, x)
        w13 = np.einsum("acdf,dbf->abc", w4, w23)
        lhs = np.einsum("abde,dec->abc", w4, w13)
        w12 = np.einsum("abde,dec->abc", w4, x)
        rhs = np.einsum("bcde,ade->abc", w4, w12)
        worst = max(worst, _sup(lhs - rhs) / _sup(x))
    return worst


def check_dual(text: str, t: dict, family: str) -> list[str]:
    """W unitary and pentagonal, the dual the transposed structure."""
    doc = json.loads(text)
    n = len(t["unit"])
    w = _complex(doc["w"])
    problems = []
    if _sup(w.conj().T @ w - np.eye(n * n)) > TOL:
        problems.append("W is not unitary")
    if pentagon_residual(w, n, np.random.default_rng(0)) > TOL:
        problems.append("W fails the pentagon equation")
    # W is the Galois map in orthonormal L2 coordinates: same traces of powers
    g = _galois(t, doc["w_kind"])
    wp, gp = np.eye(n * n), np.eye(n * n)
    for k in (1, 2, 3):
        wp, gp = wp @ w, gp @ g
        if abs(np.trace(wp) - np.trace(gp)) > TOL * n * n:
            problems.append(f"tr W^{k} differs from the coproduct's")
    dual = {k: _complex(v) for k, v in doc["dual_group"].items()
            if k in ("mult", "unit", "comult")}
    if _sup(dual["mult"] - t["comult"].transpose(1, 2, 0)) > TOL:
        problems.append("dual product is not the transposed coproduct")
    if _sup(dual["unit"] - t["counit"]) > TOL:
        problems.append("dual unit is not the counit")
    if family == "function" and _sup(dual["comult"] - dual["comult"].transpose(0, 2, 1)) > TOL:
        problems.append("dual of a function algebra is not cocommutative")
    if family == "group" and _sup(dual["mult"] - dual["mult"].transpose(1, 0, 2)) > TOL:
        problems.append("dual of a group algebra is not commutative")
    return problems


# ----------------------------------------------------------------------
# corruption self-test
# ----------------------------------------------------------------------

def _edit(text: str, fn) -> str:
    doc = json.loads(text)
    fn(doc)
    return json.dumps(doc)


def _scale_first_state(doc):
    doc["states"][0]["coeffs"] = (1.01 * np.asarray(doc["states"][0]["coeffs"])).tolist()


def _flip_haar_flag(doc):
    doc["states"][0]["haar_type"] = not doc["states"][0]["haar_type"]


def _bump_w(doc):
    doc["w"][0][1][0] += 1e-3


def _identity_w(doc):
    size = len(doc["w"])
    doc["w"] = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]


def _scale_dual_product(doc):
    doc["dual_group"]["mult"] = (1.001 * np.asarray(doc["dual_group"]["mult"])).tolist()


OTHER_FAMILY = {"function": "group", "group": "function"}


def corruptions(command: str, text: str, family: str):
    """(label, corrupted output, family to check it as) for one output."""
    def edit(fn):
        return _edit(text, fn)
    if command == "check":
        return [("a failed check", edit(lambda d: d[-1].__setitem__("passed", False)), family),
                ("a dropped pentagon check",
                 edit(lambda d: d.remove(next(r for r in d if r["key"] == "pentagon"))),
                 family)]
    if command == "idempotents":
        out = [("a dropped state", edit(lambda d: d["states"].pop()), family),
               ("a state scaled by 1.01", edit(_scale_first_state), family),
               ("a duplicated state",
                edit(lambda d: d["states"].__setitem__(0, d["states"][1])), family)]
        if family == "quantum":
            out.append(("a flipped Haar-type flag", edit(_flip_haar_flag), family))
        return out
    if command == "validate":
        return [("a failed axiom",
                 edit(lambda d: d["checks"][-1].__setitem__("passed", False)), family),
                ("a skipped axiom", edit(lambda d: d["checks"].pop()), family)]
    if command == "dual":
        return [("W with one entry changed", edit(_bump_w), family),
                ("W replaced by the identity", edit(_identity_w), family),
                ("dual product scaled by 1.001", edit(_scale_dual_product), family),
                ("the other family's dual", text, OTHER_FAMILY[family])]
    raise ValueError(command)


def check_output(command: str, text: str, family: str, t: dict,
                 n_states: int | None = None) -> list[str]:
    """The problems found in one command's stdout."""
    try:
        if command == "check":
            return check_report(text, n_states)
        if command == "idempotents":
            return (check_kp_states(text, t) if family == "quantum"
                    else check_builtin_states(text, t, family))
        if command == "validate":
            return check_validate(text)
        if command == "dual":
            return check_dual(text, t, family)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    raise ValueError(command)


def expected_states(t: dict, family: str) -> int:
    """Subgroups found by brute force; 8 idempotent states on Kac-Paljutkin."""
    if family == "quantum":
        return len(KP_COIDEAL_DIMS)
    return len(subgroups(group_table(t, family)))


def self_test(samples, tensors, n_states) -> tuple[list[str], list[str]]:
    """Corrupt each sample output; (every corruption tried, those rejected)."""
    tried, rejected = [], []
    for command, text, group in samples:
        for label, bad, family in corruptions(command, text, group.family):
            name = f"{label} ({command} on {group.name})"
            tried.append(name)
            if check_output(command, bad, family, tensors[group.name],
                            n_states.get(group.name)):
                rejected.append(name)
    return tried, rejected
