import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import runpy
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from twuality import (
    FLIPS,
    ConsistencyError,
    Multimatroid,
    Perm,
    Projection,
    RibbonGraph,
    SetSystem,
    TransversalTriple,
    TwualityElement,
    act,
    delta_matroid_of,
    is_delta_matroid,
    is_vf_safe,
    lift,
    orbit,
    orbit_via_lift,
    spanning_quasi_trees,
    stabilizer_search,
    twist,
)
import twuality
from twuality import cli, set_system
from twuality.cli import _text_lines, main
from twuality.errors import QUOTE_LIMIT, ValidationError, quoted

import ribbon_catalog as cat
from conftest import set_systems, vf_walk_families
import oracles
from oracles import PERM3, check_report_oracle

ss = SetSystem.from_sets


# a --tau nested deeper than the JSON decoder recurses, and one holding an
# integer literal longer than ``int`` converts (sys.get_int_max_str_digits)
DEEP_TAU = "[" * 50_000
LONG_TAU = "[[1,2," + "1" * 5000 + "]]"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


FILE = object()  # stands for the input file's path in an argument list


def with_file(argv, path):
    return [path if a is FILE else a for a in argv]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m twuality`` in a fresh interpreter: exit code, stdout, stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(twuality.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "twuality", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (code, err)
    return json.loads(out)


CONE = {"n": 3, "feasible": [[3], [1, 3], [2, 3]]}


@pytest.fixture()
def cone_file(tmp_path):
    return write(tmp_path, "cone.json", CONE)


@pytest.fixture()
def flat_file(tmp_path):
    return write(tmp_path, "flat.json", {"n": 3, "feasible": [[], [1], [2]]})


class TestCheck:
    def test_report_fields(self, capsys, cone_file):
        data = run_json(capsys, "check", cone_file)
        assert data == {
            "n": 3,
            "proper": True,
            "normal": False,
            "delta_matroid": True,
            "witness": None,
            "vf_safe": True,
        }

    def test_failing_family(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {"n": 3, "feasible": [[], [2], [3], [2, 3], [1, 2, 3]]},
        )
        data = run_json(capsys, "check", path)
        assert data["delta_matroid"] is False
        assert data["witness"] == {"reason": "exchange", "X": [], "Y": [1, 2, 3], "u": 1}
        assert data["vf_safe"] is False

    def test_rejects_bad_file(self, capsys, tmp_path):
        path = write(tmp_path, "dup.json", {"n": 2, "feasible": [[1], [1]]})
        code, out, err = run(capsys, "check", path)
        assert code == 1 and "duplicate" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/zzz.json")
        assert code == 1 and "cannot read" in err

    def test_missing_file_names_path_errno_and_reason(self, capsys):
        """The ``OSError`` part is its number and reason: its own text would
        name the path a second time."""
        assert run(capsys, "check", "/nonexistent/zzz.json") == (
            1,
            "",
            "error: cannot read /nonexistent/zzz.json: [Errno 2] No such file or directory\n",
        )

    @staticmethod
    def _old_route_inputs():
        """Seeded quasi-tree systems and their group translates, which are
        binary; ``U(2, 4)`` plus free elements; failing families; every
        subset of ``[3]`` but ``[3]``, plus free elements and twisted, which
        is a delta-matroid and not vf-safe; improper families; and n = 0."""
        rng = random.Random(31)
        out = []
        for _ in range(24):
            G = cat.random_ribbon(rng, max_edges=6, max_vertices=3)
            D = ss(G.n, spanning_quasi_trees(G))
            gvec = tuple(rng.choice(FLIPS) for _ in range(D.n))
            out.append(act(TwualityElement(gvec, Perm(rng.sample(range(1, D.n + 1), D.n))), D))
        u24 = [a | b for a, b in itertools.combinations((1, 2, 4, 8), 2)]
        for k in range(3):
            out.append(SetSystem(4 + k, [m | x << 4 for m in u24 for x in range(1 << k)]))
            near = SetSystem(3 + k, [m | x << 3 for m in range(7) for x in range(1 << k)])
            out += [near, twist(near, rng.sample(range(1, 4 + k), 2))]
        while len(out) < 44:
            n = rng.randint(2, 5)
            out.append(SetSystem(n, rng.sample(range(1 << n), rng.randint(1, 1 << n))))
        return out + [SetSystem(n, []) for n in range(4)] + [SetSystem(0, [0])]

    def test_matches_the_old_route(self, capsys, tmp_path):
        """The report equals the exchange walk followed by vf-safety, on
        inputs of every verdict."""
        verdicts = set()
        for k, D in enumerate(self._old_route_inputs()):
            data = run_json(capsys, "check", write(tmp_path, f"d{k}.json", D.to_json()))
            assert data == check_report_oracle(D), D
            verdicts.add((data["proper"], data["delta_matroid"], data["vf_safe"]))
        assert verdicts == {(True, True, True), (True, True, False), (True, False, False), (False, False, False)}

    @pytest.mark.parametrize("certificate", [True, False], ids=["certificate", "no-certificate"])
    def test_payload_matches_the_class_walk(self, capsys, tmp_path, monkeypatch, certificate):
        """The report against the exchange walk and the class walk that the
        closure replaced; without the certificate, binary families walk the
        closure too."""
        if not certificate:
            monkeypatch.setattr(set_system, "_is_binary", lambda table, n: False)
        for k, D in enumerate(vf_walk_families()):
            data = run_json(capsys, "check", write(tmp_path, f"d{k}.json", D.to_json()))
            witness = is_delta_matroid(D)
            assert data == {
                "n": D.n,
                "proper": D.is_proper,
                "normal": D.is_normal,
                "delta_matroid": witness.valid,
                "witness": witness.to_json(),
                "vf_safe": oracles.vf_class_walk_oracle(D.table, D.n)[0],
            }, D

    def test_vf_safe_budget_at_eleven(self, capsys, tmp_path):
        path = write(tmp_path, "d11.json", {"n": 11, "feasible": [[]]})
        assert run(capsys, "check", path) == (
            2,
            "",
            "budget exceeded: vf-safe closure capped at n <= 10, got 11 (3^11 = 177,147 twist classes)\n",
        )

    def test_no_exchange_walk_on_vf_safe_input(self, capsys, tmp_path, cone_file, monkeypatch):
        """A vf-safe verdict proves exchange; only a refused family is
        walked, once, and its witness is read off that walk."""
        real, walked = set_system._exchange_failures, []
        monkeypatch.setattr(set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n))
        assert run_json(capsys, "check", cone_file)["vf_safe"] is True
        assert walked == []
        sets = [[], [2], [3], [2, 3], [1, 2, 3]]
        data = run_json(capsys, "check", write(tmp_path, "bad.json", {"n": 3, "feasible": sets}))
        assert data["delta_matroid"] is False
        assert walked == [ss(3, sets).table]
        assert data["witness"] == is_delta_matroid(ss(3, sets)).to_json()

    def test_one_exchange_walk_of_its_own_twist_class(self, capsys, tmp_path, monkeypatch):
        """The closure walks exchange on the input itself first.  That one
        walk is the only one on the input's twist class, whether the family
        is a delta-matroid that is not vf-safe or fails exchange, where the
        walk's failure table gives the witness."""
        real, walked = set_system._exchange_failures, []
        monkeypatch.setattr(set_system, "_exchange_failures", lambda t, n: walked.append(t) or real(t, n))
        for name, delta_matroid in (("not-vf-safe", True), ("not-delta", False)):
            D = SetSystem.from_json(_PINNED_SYSTEMS[name])
            own = set(oracles.twist_class(D.table, D.n))
            walked.clear()
            data = run_json(capsys, "check", write(tmp_path, f"{name}.json", D.to_json()))
            assert (data["delta_matroid"], data["vf_safe"]) == (delta_matroid, False)
            assert walked[0] == D.table
            assert sum(t in own for t in walked) == 1

    @pytest.mark.parametrize(
        "r, n, vf_safe", [(2, 5, True), (3, 5, True), (3, 6, True), (2, 6, False), (4, 6, False)]
    )
    def test_connected_non_binary_uniform_rung(self, capsys, tmp_path, r, n, vf_safe):
        """The uniform matroid ``U(r, n)`` is connected and not binary, so
        the certificate cannot decide it and it has no summands to split:
        the closure decides it.  ``U(2, 5)``, ``U(3, 5)`` and ``U(3, 6)`` are
        quaternary, hence vf-safe; ``U(2, 6)`` and its dual ``U(4, 6)`` are
        not vf-safe.  ``check`` reports a delta-matroid with no witness, and
        three seeded group translates keep the verdict."""
        D = SetSystem(n, [sum(1 << i for i in c) for c in itertools.combinations(range(n), r)])
        assert not set_system._is_binary(D.table, n)
        assert oracles.vf_class_walk_oracle(D.table, n)[0] is vf_safe
        data = run_json(capsys, "check", write(tmp_path, "u.json", D.to_json()))
        assert (data["delta_matroid"], data["witness"], data["vf_safe"]) == (True, None, vf_safe)
        rng = random.Random(10 * r + n)
        for _ in range(3):
            gvec = tuple(rng.choice(FLIPS) for _ in range(n))
            E = act(TwualityElement(gvec, Perm(rng.sample(range(1, n + 1), n))), D)
            assert is_vf_safe(E) is vf_safe, E
            assert oracles.vf_class_walk_oracle(E.table, n)[0] is vf_safe, E
            assert run_json(capsys, "check", write(tmp_path, "e.json", E.to_json()))["vf_safe"] is vf_safe


_PINNED_SYSTEMS = {
    "cone": {"n": 3, "feasible": [[3], [1, 3], [2, 3]]},
    "not-delta": {"n": 3, "feasible": [[], [2], [3], [2, 3], [1, 2, 3]]},
    # every subset of [4] but those holding [3]: a delta-matroid, not vf-safe
    "not-vf-safe": SetSystem(4, [m for m in range(16) if m & 7 != 7]).to_json(),
}
_PINNED_GRAPHS = {
    # its quasi-tree system is the cone
    "cone": RibbonGraph([[1, 3, 2, 4, 5], [6]], [((1, 2), -1, 1), ((3, 4), -1, 2), ((5, 6), 1, 3)]),
    "bouquet6": cat.bouquet([1, -1, 1, 1, -1, 1], interleaved=True),
}
_PINNED_SYSTEMS["bouquet6"] = ss(6, spanning_quasi_trees(_PINNED_GRAPHS["bouquet6"])).to_json()
_NO_OUTPUT = hashlib.sha256(b"").hexdigest()


# sha256 of stdout as recorded before ``check`` and ``ribbon dm`` skipped the
# exchange walk on vf-safe families and ``lift`` wrote its JSON as text
@pytest.mark.parametrize(
    "command, name, code, digest",
    [
        ("check", "cone", 0, "dfcd0f2379ed0a260cb8c9d070f9f0b56d6fd285ab78291e6c9aebb799371bc2"),
        ("check", "bouquet6", 0, "dd0dc3cb84d502a5c333287f97bf5133aab9df829ff492f69a210ed0ffd21b23"),
        ("check", "not-delta", 0, "c4f0d10d79bcd72e4afe62983cdb9cc5c811f0754ffea780f367a2a23bd72291"),
        ("check", "not-vf-safe", 0, "c1335f518495531a9953a26fbe33756957a188c0caf79ee5ec0afee07b4d0c4b"),
        ("lift", "cone", 0, "d78f427bb4d1f73593703f8c738c92fff4132ee5fbe7e3df6168cb165de6e4d4"),
        ("lift", "bouquet6", 0, "ef66ee7eef40dcb74fceee64bc344d1c0e3a95341a413d68ea1102180e00d955"),
        ("lift", "not-delta", 1, _NO_OUTPUT),
        ("lift", "not-vf-safe", 1, _NO_OUTPUT),
        ("ribbon dm", "cone", 0, "d3127b96f099d9885f0ad09e433c927210b1b211f282f1110c681918dff1b0e7"),
        ("ribbon dm", "bouquet6", 0, "1928eea06f6def6a79c4faaa0e41f0d3cce6f429190ad1fc5ec23a13c34604ef"),
    ],
)
def test_stdout_pinned(capsys, tmp_path, command, name, code, digest):
    payload = _PINNED_GRAPHS[name].to_json() if command == "ribbon dm" else _PINNED_SYSTEMS[name]
    got, out, _ = run(capsys, *command.split(), write(tmp_path, "in.json", payload))
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _ribbon_sample():
    """24 seeded graphs with 1-6 edges; every third a disjoint union,
    every fourth with one or two isolated vertices."""
    rng = random.Random(53)
    graphs = []
    for i in range(24):
        G = cat.random_ribbon(rng, max_edges=3 if i % 3 == 0 else 6, max_vertices=4)
        if i % 3 == 0:
            G = cat.disjoint_union(G, cat.random_ribbon(rng, max_edges=3))
        if i % 4 == 0:
            G = cat.with_isolated(G, 1 + i % 8 // 4)
        graphs.append(G)
    return graphs


# sha256 of the exit codes and stdout, as recorded before ``medial`` counted
# the components in its pass over the rotations
def test_ribbon_commands_pinned_on_a_seeded_sample(capsys, tmp_path):
    digest = hashlib.sha256()
    for G in _ribbon_sample():
        path = write(tmp_path, "in.json", G.to_json())
        for what in ("medial", "dm", "verify-t63"):
            code, out, _ = run(capsys, "ribbon", what, path)
            digest.update(b"%d\n" % code + out.encode())
    assert digest.hexdigest() == "3c2b7561b7f206f3c81881a4a379bd12a87731dd0042d723b94672fff1e6eccc"


class TestApply:
    def test_twist_fixed_point(self, capsys, tmp_path):
        path = write(tmp_path, "pair.json", {"n": 2, "feasible": [[1], [2]]})
        data = run_json(capsys, "apply", path, "--ops", "*{1,2}")
        assert data == {"feasible": [[1], [2]], "n": 2}

    def test_left_to_right_semantics(self, capsys, tmp_path):
        path = write(tmp_path, "one.json", {"n": 1, "feasible": [[]]})
        # twist then complement, as written
        data = run_json(capsys, "apply", path, "--ops", "*{1} +{1}")
        assert data == {"feasible": [[1]], "n": 1}
        # the same word fused into one token
        assert run_json(capsys, "apply", path, "--ops", "*+{1}") == {"feasible": [[1]], "n": 1}
        # opposite order differs
        assert run_json(capsys, "apply", path, "--ops", "+{1} *{1}") == {
            "feasible": [[], [1]],
            "n": 1,
        }

    def test_relabel_token(self, capsys, tmp_path):
        path = write(tmp_path, "asym.json", {"n": 2, "feasible": [[], [1], [1, 2]]})
        data = run_json(capsys, "apply", path, "--ops", "(1 2)")
        assert data == {"feasible": [[], [2], [1, 2]], "n": 2}

    def test_bad_token(self, capsys, tmp_path):
        path = write(tmp_path, "one.json", {"n": 1, "feasible": [[]]})
        code, _, err = run(capsys, "apply", path, "--ops", "frob{1}")
        assert code == 1 and "bad operation token" in err


class TestOrbitCommands:
    def test_orbit_iota_singleton(self, capsys, tmp_path):
        path = write(tmp_path, "one.json", {"n": 1, "feasible": [[]]})
        data = run_json(capsys, "orbit", path, "--iota")
        assert data["size"] == 3
        assert len(data["elements"]) == 3 and len(data["paths"]) == 3

    def test_text_sketch_keeps_empty_sets(self, capsys, tmp_path):
        """An empty feasible set and the seed's empty word each keep their
        line, so ``{{}, {1}}`` reads apart from ``{{1}}`` and each of the 3
        elements has a path."""
        path = write(tmp_path, "one.json", {"n": 1, "feasible": [[]]})
        code, out, _ = run(capsys, "orbit", path, "--iota", "--format", "text")
        assert code == 0
        assert out == (
            "elements:\n"
            "  -\n    feasible:\n      - []\n    n: 1\n"
            "  -\n    feasible:\n      - []\n      - [1]\n    n: 1\n"
            "  -\n    feasible:\n      - [1]\n    n: 1\n"
            'mode: "iota"\n'
            'paths:\n  - []\n  - ["+1"]\n  - ["*1"]\n'
            "size: 3\n"
        )

    def test_budget_exit_code(self, capsys, cone_file):
        code, _, err = run(capsys, "orbit", cone_file, "--max-n", "2")
        assert code == 2 and "capped" in err

    # sha256 of the stdout of the tuple-keyed canonical sort that the
    # shortlex rank table replaced (54 and 18 elements)
    @pytest.mark.parametrize(
        "options, digest",
        [
            ([], "818c1176b5f0b435e3c9996d11dcee92e40701ecfc4bebb9be7f57d477ec6cd7"),
            (["--iota"], "3c34812cf13cc5c4f289ca7c7c9e17d26baf867d8bb138f455d1a4eb0742877b"),
        ],
    )
    def test_orbit_stdout_pinned(self, capsys, cone_file, options, digest):
        code, out, _ = run(capsys, "orbit", cone_file, *options)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_report_unchanged_by_mutated_json(self, capsys, cone_file):
        """The payloads share no mutable state with the library: editing a
        ``SetSystem.to_json()`` or an orbit payload changes no later report."""
        _, before, _ = run(capsys, "orbit", cone_file)
        rep = orbit(ss(3, [(3,), (1, 3), (2, 3)]), mode="full")
        for D in rep.elements:
            data = D.to_json()
            for s in data["feasible"]:
                s.append(4)
            data["feasible"].append([1])
        payload = rep.to_json()
        payload["elements"][0]["feasible"] = []
        payload["paths"].clear()
        assert rep.to_json() == orbit(rep.seed, mode="full").to_json()
        assert run(capsys, "orbit", cone_file)[1] == before

    def test_orbit_via_lift_matches_orbit(self, capsys, cone_file):
        direct = run_json(capsys, "orbit", cone_file)
        via = run_json(capsys, "orbit-via-lift", cone_file)
        assert via["size"] == direct["size"]
        assert via["elements"] == direct["elements"]


class TestSelfTwual:
    def test_uniform_hit_printed(self, capsys, flat_file):
        data = run_json(capsys, "selftwual", flat_file, "--uniform-only")
        assert {"gvec": ["~", "~", "~"], "perm": [1, 2, 3], "uniform": "~"} in data["hits"]

    def test_all_mode_contains_example(self, capsys, cone_file):
        data = run_json(capsys, "selftwual", cone_file)
        assert {"gvec": ["*", "+", "+"], "perm": [1, 2, 3]} in data["hits"]

    def test_stdout_pinned_at_six_elements(self, capsys, tmp_path):
        """The 45,360 hits of ``{∅}`` at n = 6, as the search printed them
        when each hit held a nested ``TwualityElement``."""
        path = write(tmp_path, "empty6.json", {"n": 6, "feasible": [[]]})
        code, out, _ = run(capsys, "selftwual", path, "--max-n", "6")
        digest = "0c5ad2b32b18a3f84db0c135bd5f35cabb7df22c0720c9a66ee7975dbebe038f"
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def _random_system(seed, n):
        rng = random.Random(seed)
        return SetSystem(n, rng.sample(range(1 << n), rng.randint(1, 1 << n)))

    @pytest.mark.parametrize(
        "case",
        [("empty-5", "all"), ("random-4", "all"), ("random-6", "uniform")],
        ids=lambda case: case[0],
    )
    def test_stdout_is_the_canonical_payload(self, capsys, tmp_path, case):
        """The text ``selftwual`` writes is the canonical JSON of the hits'
        ``to_json``: on ``{∅}`` at n = 5, on a random n = 4 system with
        uniform and non-uniform hits, and on a random n = 6 system under
        ``--uniform-only``.  The seeds are chosen so that each has hits."""
        name, mode = case
        D = {
            "empty-5": SetSystem(5, [0]),
            "random-4": self._random_system(2, 4),
            "random-6": self._random_system(27, 6),
        }[name]
        hits = stabilizer_search(D, mode=mode, max_n=D.n)
        assert hits and any(h.uniform is not None for h in hits)
        payload = {"count": len(hits), "hits": [h.to_json() for h in hits]}
        path = write(tmp_path, "d.json", D.to_json())
        extra = ["--uniform-only"] if mode == "uniform" else []
        code, out, _ = run(capsys, "selftwual", path, *extra)
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        code, out, _ = run(capsys, "selftwual", path, *extra, "--format", "text")
        assert code == 0
        assert out == "".join(line + "\n" for line in _text_lines(payload, ""))


class TestUniformize:
    def test_worked_example(self, capsys, cone_file):
        data = run_json(
            capsys, "uniformize", cone_file, "--gvec", "*,+,+", "--mu", "[1,2,3]", "--g", "~"
        )
        assert data["hvec"] == ["+", "*", "*"]
        assert data["target"] == {"feasible": [[], [1], [2]], "n": 3}

    def test_refusal_is_validation_error(self, capsys, cone_file):
        code, _, err = run(
            capsys, "uniformize", cone_file, "--gvec", "*,+,+", "--mu", "[1,2,3]", "--g", "*+"
        )
        assert code == 1 and "cycle order condition" in err


class TestMultimatroidCommands:
    def test_lift_and_extract_round_trip(self, capsys, tmp_path, cone_file):
        lifted = run_json(capsys, "lift", cone_file)
        assert Multimatroid.from_json(lifted).n == 3
        zpath = write(tmp_path, "z.json", lifted)
        tau = json.dumps([[1, 2, 3]] * 3)
        back = run_json(capsys, "extract", zpath, "--tau", tau, "--sigma", "[1,2,3]")
        assert back == {"feasible": [[3], [1, 3], [2, 3]], "n": 3}

    @pytest.mark.parametrize(
        "name, tau, sigma", [("cone", [[2, 1, 3], [1, 3, 2], [3, 2, 1]], None), ("bouquet6", None, [2, 3, 1, 6, 5, 4])]
    )
    def test_lift_text_sketches_the_bases(self, capsys, tmp_path, name, tau, sigma):
        payload = _PINNED_SYSTEMS[name]
        argv = ["lift", write(tmp_path, "d.json", payload), "--format", "text"]
        argv += ["--tau", json.dumps(tau)] if tau else []
        argv += ["--sigma", json.dumps(sigma)] if sigma else []
        Z = lift(SetSystem.from_json(payload), tau and TransversalTriple(tau), sigma and Projection(Perm(sigma)))
        assert run(capsys, *argv) == (0, "".join(line + "\n" for line in _text_lines(Z.to_json(), "")), "")

    def test_mm_check(self, capsys, tmp_path):
        path = write(tmp_path, "mm.json", {"n": 1, "bases": [[[1, 1]], [[1, 3]]]})
        data = run_json(capsys, "mm-check", path)
        assert data["multimatroid"] is True and data["tight"] is True

    def test_mm_check_negative(self, capsys, tmp_path):
        # a lone basis fails the skew-pair axiom and the tightness count
        path = write(tmp_path, "mm.json", {"n": 1, "bases": [[[1, 1]]]})
        data = run_json(capsys, "mm-check", path)
        assert data["multimatroid"] is False and data["witness"]["axiom"] == 2
        assert data["tight"] is False
        assert data["tight_witness"]["non_bases"] == [2, 3]

    # Exact stdout, witness order included, of the per-transversal scan
    # that the subtransversal lookup in is_multimatroid replaced.
    @pytest.mark.parametrize(
        "payload, expected",
        [
            (  # augmentation fails in the transversal (1, 1, 1)
                {"n": 3, "bases": [[[1, 1], [2, 1], [3, 2]], [[1, 2], [2, 2], [3, 1]]]},
                '{"multimatroid":false,"n":3,"tight":false,'
                '"tight_witness":{"basis":[1,1,2],"class":1,"non_bases":[2,3]},'
                '"witness":{"I":[0,0,1],"J":[1,1,0],"axiom":1,"transversal":[1,1,1]}}\n',
            ),
            (  # the skew pair (2, 3) of class 1 cannot extend [0, 1]
                {"n": 2, "bases": [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]},
                '{"multimatroid":false,"n":2,"tight":false,'
                '"tight_witness":{"basis":[1,1],"class":1,"non_bases":[2,3]},'
                '"witness":{"axiom":2,"class":1,"independent":[0,1],"pair":[2,3]}}\n',
            ),
        ],
    )
    def test_mm_check_failure_stdout_pinned(self, capsys, tmp_path, payload, expected):
        code, out, _ = run(capsys, "mm-check", write(tmp_path, "mm.json", payload))
        assert (code, out) == (0, expected)

    # Exact stdout of the per-choice lift that the base-table lift replaced;
    # the table lists class 1 in its lowest digit, so the order is a sort.
    @pytest.mark.parametrize(
        "options, bases",
        [
            (
                [],
                "[[[1,1],[2,1],[3,2]],[[1,1],[2,1],[3,3]],[[1,1],[2,2],[3,2]],[[1,1],[2,2],[3,3]],"
                "[[1,2],[2,1],[3,2]],[[1,2],[2,1],[3,3]],[[1,2],[2,3],[3,2]],[[1,2],[2,3],[3,3]],"
                "[[1,3],[2,2],[3,2]],[[1,3],[2,2],[3,3]],[[1,3],[2,3],[3,2]],[[1,3],[2,3],[3,3]]]",
            ),
            (
                ["--tau", "[[2,1,3],[1,3,2],[3,2,1]]", "--sigma", "[2,3,1]"],
                "[[[1,1],[2,2],[3,1]],[[1,1],[2,2],[3,3]],[[1,1],[2,3],[3,1]],[[1,1],[2,3],[3,3]],"
                "[[1,2],[2,2],[3,2]],[[1,2],[2,2],[3,3]],[[1,2],[2,3],[3,2]],[[1,2],[2,3],[3,3]],"
                "[[1,3],[2,2],[3,1]],[[1,3],[2,2],[3,2]],[[1,3],[2,3],[3,1]],[[1,3],[2,3],[3,2]]]",
            ),
        ],
    )
    def test_lift_stdout_pinned(self, capsys, cone_file, options, bases):
        assert run(capsys, "lift", cone_file, *options) == (0, '{"bases":' + bases + ',"n":3}\n', "")

    def test_orbit_via_lift_iota_stdout_pinned(self, capsys, tmp_path):
        path = write(tmp_path, "d.json", {"n": 2, "feasible": [[], [1]]})
        code, out, _ = run(
            capsys, "orbit-via-lift", path, "--iota", "--sigma", "[2,1]", "--tau", "[[2,1,3],[1,3,2]]"
        )
        assert code == 0
        assert out == (
            '{"elements":[{"feasible":[[]],"n":2},{"feasible":[[],[1]],"n":2},'
            '{"feasible":[[],[1],[2],[1,2]],"n":2},{"feasible":[[],[2]],"n":2},'
            '{"feasible":[[1]],"n":2},{"feasible":[[1],[1,2]],"n":2},{"feasible":[[2]],"n":2},'
            '{"feasible":[[2],[1,2]],"n":2},{"feasible":[[1,2]],"n":2}],"size":9}\n'
        )


    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("mode", ["full", "iota"])
    @pytest.mark.parametrize("moved", [False, True])
    def test_orbit_via_lift_stdout_is_dumps_of_systems(self, capsys, tmp_path, n, mode, moved):
        """The stdout of ``orbit-via-lift``, written off the order forms,
        is the text the command printed when it built every system's
        ``to_json`` and ran ``json.dumps``; ``--format text`` is the sketch
        of that payload.  The seeds are twisted interleaved bouquets (a
        full orbit stays small), with and without a random triple and
        projection."""
        rng = random.Random(f"ovl/{n}/{mode}/{moved}")
        G = cat.bouquet([rng.choice((1, -1)) for _ in range(n)], interleaved=True)
        D = twist(delta_matroid_of(G), frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))))
        tau, sigma = TransversalTriple.reference(n), Projection.identity(n)
        options = ["--max-n", str(n)]
        if mode == "iota":
            options.append("--iota")
        if moved:
            tau = TransversalTriple(tuple(rng.choice(PERM3) for _ in range(n)))
            sigma = Projection(Perm(tuple(rng.sample(range(1, n + 1), n))))
            options += ["--tau", json.dumps(tau.to_json()["roles"]), "--sigma", json.dumps(list(sigma.relabel.images))]
        elements = orbit_via_lift(D, tau, sigma, mode=mode, max_n=n)
        payload = {"size": len(elements), "elements": [d.to_json() for d in elements]}
        path = write(tmp_path, "d.json", D.to_json())
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert run(capsys, "orbit-via-lift", path, *options) == (0, expected, "")
        expected = "".join(line + "\n" for line in _text_lines(payload, ""))
        assert run(capsys, "orbit-via-lift", path, *options, "--format", "text") == (0, expected, "")

    @pytest.mark.parametrize(
        "tau",
        ["5", "[5]", '{"roles": 5}', '{"slots": []}', '[[1, 2, 3], [2, 1, 3], [true, 2, 3]]', DEEP_TAU, LONG_TAU],
        ids=lambda tau: {DEEP_TAU: "deep", LONG_TAU: "long-literal"}.get(tau, tau),
    )
    def test_lift_rejects_malformed_tau(self, capsys, cone_file, tau):
        code, out, err = run(capsys, "lift", cone_file, "--tau", tau)
        assert code == 1 and out == ""
        assert err.startswith("error: bad transversal triple") and err.count("\n") == 1


class TestRibbonCommands:
    @pytest.fixture()
    def loop_file(self, tmp_path):
        return write(tmp_path, "loop.json", cat.twisted_loop().to_json())

    def test_dm(self, capsys, loop_file):
        assert run_json(capsys, "ribbon", "dm", loop_file) == {
            "feasible": [[], [1]],
            "n": 1,
        }

    def test_medial(self, capsys, loop_file):
        data = run_json(capsys, "ribbon", "medial", loop_file)
        assert data["free_loops"] == 0
        assert len(data["corner_edges"]) == 2
        assert set(data["medial_vertices"][0]["transitions"]) == {"black", "white", "crossing"}

    def test_dm_honours_max_n(self, capsys, tmp_path):
        path = write(tmp_path, "path2.json", cat.path_graph([1, -1]).to_json())
        code, out, err = run(capsys, "ribbon", "dm", path, "--max-n", "1")
        assert code == 2 and out == ""
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1

    def test_dm_non_binary_above_vf_cap_is_internal(self, capsys, tmp_path, monkeypatch):
        """Above the vf-safe cap ``ribbon dm`` checks the certificate: a
        quasi-tree system stubbed to ``U(2, 4)`` plus 8 free elements, a
        delta-matroid that is not binary, is reported as a bug."""
        import itertools
        import twuality.ribbon as ribbon_mod

        u24 = [a | b for a, b in itertools.combinations((1, 2, 4, 8), 2)]
        stub = SetSystem(12, [m | x << 4 for m in u24 for x in range(256)])
        monkeypatch.setattr(ribbon_mod, "_quasi_tree_system", lambda G, max_e: stub)
        path = write(tmp_path, "b12.json", cat.bouquet([1] * 12).to_json())
        code, out, err = run(capsys, "ribbon", "dm", path)
        assert (code, out) == (4, "")
        assert err.startswith("internal error: ") and err.endswith("is not binary\n")

    @pytest.mark.parametrize(
        "stub, fault",
        [
            (SetSystem(6, [0, 7]), "fails symmetric exchange"),
            (SetSystem(12, [0, 7]), "fails symmetric exchange"),
            (SetSystem(6, [m for m in range(64) if m & 7 != 7]), "is not vf-safe"),
        ],
    )
    def test_dm_error_precedence(self, capsys, tmp_path, monkeypatch, stub, fault):
        """The exchange walk runs only on a family refused as not vf-safe
        (up to 10 edges) or not binary (above), and its failure is named
        first: ``{{}, {1, 2, 3}}`` fails exchange at 6 and at 12 edges, and
        every subset of ``[6]`` but those holding ``[3]`` is only not vf-safe."""
        import twuality.ribbon as ribbon_mod

        monkeypatch.setattr(ribbon_mod, "_quasi_tree_system", lambda G, max_e: stub)
        path = write(tmp_path, "b.json", cat.bouquet([1] * stub.n).to_json())
        code, out, err = run(capsys, "ribbon", "dm", path)
        assert (code, out) == (4, "")
        assert err.startswith("internal error: quasi-tree family of RibbonGraph(")
        assert err.endswith(f") {fault}\n")

    def test_dm_beyond_ground_limit(self, capsys, tmp_path):
        """A raised cap cannot build a set system on more than 16 elements."""
        path = write(tmp_path, "path17.json", cat.path_graph([1] * 17).to_json())
        code, out, err = run(capsys, "ribbon", "dm", path, "--max-n", "17")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_t63_ok(self, capsys, loop_file):
        code, out, err = run(capsys, "ribbon", "verify-t63", loop_file)
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_verify_t63_max_n_raises_inner_caps(self, capsys, tmp_path):
        """``--max-n`` lifts the transition-matroid and lift caps (8) too."""
        path = write(tmp_path, "b9.json", cat.bouquet([1] * 9, interleaved=True).to_json())
        code, out, err = run(capsys, "ribbon", "verify-t63", path, "--max-n", "9")
        assert (code, err) == (0, "")
        assert json.loads(out)["equal"] is True

    def test_verify_t63_counterexample_exit(self, capsys, loop_file, monkeypatch):
        from twuality.ribbon import MedialLiftReport
        import twuality.cli as cli_mod

        fake = MedialLiftReport(False, ((1,),), ())
        monkeypatch.setattr(cli_mod, "verify_medial_lift", lambda G, **kw: fake)
        code, out, err = run(capsys, "ribbon", "verify-t63", loop_file)
        assert code == 3
        assert json.loads(out)["equal"] is False


@st.composite
def _orbit_cases(draw):
    """JSON in iota mode on up to 5 elements, otherwise up to 4: a random
    5-element system can have 6^5·5! = 933,120 elements in full mode, and
    the text of its 7,776-element iota orbit takes over a second."""
    mode = draw(st.sampled_from(["iota", "full"]))
    fmt = draw(st.sampled_from(["json", "text"]))
    D = draw(set_systems(max_n=5 if (mode, fmt) == ("iota", "json") else 4))
    return D, mode, fmt


@settings(max_examples=30, deadline=None)
@given(_orbit_cases())
@example((SetSystem.from_sets(0, [()]), "full", "json"))
@example((SetSystem(2, []), "iota", "json"))
@example((SetSystem.from_sets(3, [(1, 3)]), "full", "json"))
def test_orbit_stdout_equals_list_payload(tmp_path_factory, case):
    """``orbit`` prints what the report built from fresh lists prints:
    ``SetSystem.to_json()`` per element, the witness words as lists.  The
    examples pin the JSON writer on an element of one set and of none, and
    on an orbit of the seed alone, whose witness word is empty."""
    D, mode, fmt = case
    path = tmp_path_factory.getbasetemp() / "orbit.json"
    path.write_text(json.dumps(D.to_json()), encoding="utf-8")
    argv = ["orbit", str(path), "--format", fmt] + (["--iota"] if mode == "iota" else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    rep = orbit(D, mode=mode)
    payload = {
        "mode": mode,
        "size": rep.size,
        "elements": [E.to_json() for E in rep.elements],
        "paths": [list(rep.paths[E]) for E in rep.elements],
    }
    if fmt == "json":
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        expected = "".join(line + "\n" for line in _text_lines(payload, ""))
    assert out.getvalue() == expected


# a valid argv of each command, and of each ``ribbon`` word, with the payload of its file
_VALID_CALLS = {
    "check": (["check", FILE], CONE),
    "apply": (["apply", FILE, "--ops", "*{1} +{2} (1 2)"], CONE),
    "orbit": (["orbit", FILE], CONE),
    "selftwual": (["selftwual", FILE], CONE),
    "uniformize": (["uniformize", FILE, "--gvec", "*,+,+", "--mu", "[1,2,3]", "--g", "~"], CONE),
    "lift": (["lift", FILE], CONE),
    "extract": (
        ["extract", FILE, "--tau", "[[2,1,3],[1,3,2],[3,2,1]]", "--sigma", "[3,1,2]"],
        lift(SetSystem.from_json(CONE)).to_json(),
    ),
    "mm-check": (["mm-check", FILE], {"n": 2, "bases": [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]}),
    "orbit-via-lift": (["orbit-via-lift", FILE, "--iota", "--sigma", "[2,3,1]"], CONE),
    "ribbon dm": (["ribbon", "dm", FILE], cat.theta((1, -1, 1)).to_json()),
    "ribbon medial": (["ribbon", "medial", FILE], cat.bouquet((1, -1, 1), interleaved=True).to_json()),
    "ribbon verify-t63": (["ribbon", "verify-t63", FILE], cat.theta((1, -1, 1)).to_json()),
}


def test_valid_calls_cover_every_command_and_ribbon_word():
    ribbon_words = cli._COMMANDS["ribbon"].positionals[0][1]
    assert {argv[0] for argv, _ in _VALID_CALLS.values()} == set(cli._COMMANDS)
    assert [argv[1] for argv, _ in _VALID_CALLS.values() if argv[0] == "ribbon"] == list(ribbon_words)


class TestOnePayloadKind:
    """Every command returns canonical JSON text, which ``main`` writes as
    it is or, for ``--format text``, as the sketch of its value."""

    @pytest.mark.parametrize("call", _VALID_CALLS)
    def test_command_returns_canonical_text_and_exit_code(self, call):
        argv, payload = _VALID_CALLS[call]
        args = cli._parse(with_file(argv, "in.json"))
        text, code = args.fn(args.kind.from_json(payload), args)
        assert (type(text), type(code)) == (str, int)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("call", _VALID_CALLS)
    def test_text_format_sketches_the_json_output(self, capsys, tmp_path, call):
        argv, payload = _VALID_CALLS[call]
        argv = with_file(argv, write(tmp_path, "in.json", payload))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        sketch = "".join(line + "\n" for line in _text_lines(json.loads(out), ""))
        assert run(capsys, *argv, "--format", "text") == (0, sketch, "")

    @pytest.mark.parametrize("call", ["apply", "extract", "uniformize", "ribbon medial"])
    def test_max_n_is_checked_and_otherwise_ignored(self, capsys, tmp_path, call):
        """The four commands that run no capped routine write the same
        bytes and exit code under ``--max-n 0``."""
        argv, payload = _VALID_CALLS[call]
        argv = with_file(argv, write(tmp_path, "in.json", payload))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert run(capsys, *argv, "--max-n", "0") == (code, out, "")


class TestHarness:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1 and "usage" in err

    def test_unknown_flag(self, capsys, cone_file):
        code, _, err = run(capsys, "check", cone_file, "--frob")
        assert code == 1 and "usage" in err

    def test_byte_identical_reruns(self, capsys, cone_file):
        _, out1, _ = run(capsys, "orbit", cone_file)
        _, out2, _ = run(capsys, "orbit", cone_file)
        assert out1 == out2

    def test_negative_max_n(self, capsys, cone_file):
        code, out, err = run(capsys, "check", cone_file, "--max-n", "-1")
        assert code == 1 and out == ""
        assert err == "error: --max-n must be non-negative\n"

    @pytest.mark.parametrize(
        "argv, payload, head",
        [
            (["check", FILE], CONE, "vf-safe closure capped at n <= 0"),
            (["orbit", FILE], CONE, "orbit(full) capped at n <= 0"),
            (["selftwual", FILE], CONE, "stabilizer_search(all) capped at n <= 0"),
            (["lift", FILE], CONE, "lift capped at n <= 0"),
            (["mm-check", FILE], {"n": 1, "bases": [[[1, 1]]]}, "is_multimatroid capped at n <= 0"),
            (["orbit-via-lift", FILE], CONE, "orbit_via_lift(full) capped at n <= 0"),
            (["ribbon", "dm", FILE], cat.twisted_loop().to_json(), "quasi-tree enumeration capped at 0 edges"),
            (["ribbon", "verify-t63", FILE], cat.twisted_loop().to_json(), "verification capped at 0 edges"),
        ],
        ids=["check", "orbit", "selftwual", "lift", "mm-check", "orbit-via-lift", "ribbon-dm", "verify-t63"],
    )
    def test_max_n_reaches_the_engine(self, capsys, tmp_path, argv, payload, head):
        """``--max-n 0`` is passed to the command's engine as its cap: a
        nonempty input is refused, naming cap 0."""
        path = write(tmp_path, "in.json", payload)
        code, out, err = run(capsys, *with_file(argv, path), "--max-n", "0")
        assert (code, out) == (2, "")
        assert err.startswith(f"budget exceeded: {head}, got ") and err.count("\n") == 1

    def test_internal_error_exit_code(self, capsys, tmp_path, monkeypatch):
        import twuality.cli as cli_mod

        def broken(G, max_e=None):
            raise ConsistencyError("quasi-tree family fails symmetric exchange")

        monkeypatch.setattr(cli_mod, "delta_matroid_of", broken)
        path = write(tmp_path, "loop.json", cat.twisted_loop().to_json())
        code, out, err = run(capsys, "ribbon", "dm", path)
        assert code == 4 and out == ""
        assert err == "internal error: quasi-tree family fails symmetric exchange\n"

    def test_threads_flag_accepted(self, capsys, cone_file):
        _, out1, _ = run(capsys, "check", cone_file)
        _, out4, _ = run(capsys, "check", cone_file, "--threads", "4")
        assert out1 == out4

    def test_text_format(self, capsys, cone_file):
        code, out, _ = run(capsys, "check", cone_file, "--format", "text")
        assert code == 0
        assert "delta_matroid: true" in out

    def test_round_trip_formats(self, tmp_path):
        D = ss(2, [(), (1, 2)])
        assert SetSystem.from_json(json.loads(json.dumps(D.to_json()))) == D
        Z = Multimatroid(2, [(1, 2), (3, 3)])
        assert Multimatroid.from_json(json.loads(json.dumps(Z.to_json()))) == Z
        G = cat.theta((1, -1, 1))
        assert RibbonGraph.from_json(json.loads(json.dumps(G.to_json()))).to_json() == G.to_json()


# a value each option of the command table accepts
_VALUES = {
    "--format": "text",
    "--max-n": "3",
    "--threads": "2",
    "--ops": "*{1}",
    "--gvec": "*,+,+",
    "--mu": "[1,2,3]",
    "--g": "~",
    "--tau": "[[1,2,3]]",
    "--sigma": "[1]",
}
_ORACLE = oracles.argparse_oracle()


def _options(name):
    """The options of command ``name`` other than help, by option string."""
    return {option: opt for option, opt in cli._COMMANDS[name].options.items() if option not in ("-h", "--help")}


def _required(name):
    """Each required option of command ``name`` with its value."""
    return [word for option, opt in _options(name).items() if opt.required for word in (option, _VALUES[option])]


def _base(name):
    """The shortest valid argv of command ``name``: its words, then each
    required option with its value."""
    return [name] + (["dm"] if name == "ribbon" else []) + ["in.json"] + _required(name)


def _abbreviation(name, option):
    """The shortest prefix of ``option`` that no other option of ``name``
    starts with, else ``option`` itself (``--g`` begins ``--gvec``)."""
    others = [o for o in cli._COMMANDS[name].options if o != option]
    prefixes = (option[:k] for k in range(3, len(option)) if not any(o.startswith(option[:k]) for o in others))
    return next(prefixes, option)


def _valid_argv():
    """Every command and option: each option after and before the file, as
    ``--name value``, ``--name=value`` and its shortest abbreviation; a
    ``--`` before the file, negative values, and an option given twice."""
    cases = []
    for name in cli._COMMANDS:
        base = _base(name)
        words = base[: len(base) - len(_required(name))]
        cases += [base, [name] + _required(name) + ["--"] + words[1:]]
        for option, opt in _options(name).items():
            short = _abbreviation(name, option)
            if opt.type is None:
                cases += [base + [option], base + [short], base[:1] + [option] + base[1:]]
                continue
            value = _VALUES[option]
            cases += [
                base + [option, value],
                base + [f"{option}={value}"],
                base + [short, value],
                base + [f"{short}={value}"],
                base[:1] + [option, value] + base[1:],
            ]
        cases += [
            base + ["--max-n", "-1"],
            base + ["--threads", "-3"],
            base + ["--format", "text", "--format", "json"],
            base + ["--max-n", "2", "--max-n=5"],
        ]
    cases += [["lift", "in.json", "--sigma", "-1"], ["apply", "in.json", "--ops", "-1 x"], ["check", "-1"]]
    cases += [["check", "in.json", "--"], ["check", "--", "-x"], ["ribbon", "verify-t63", "--", "in.json"]]
    return cases


def _bad_argv():
    """Argv that argparse refuses: missing, unknown, ambiguous and extra
    arguments, bad choices, bad ints, an option missing its value, a flag
    given a value, and ``--`` in each place it can stand."""
    cases = [
        [],
        ["frobnicate", "in.json"],
        ["--max-n", "3", "check", "in.json"],
        ["--frob", "check", "in.json", "--frob2"],
        ["--"],
        ["--", "check", "in.json"],
        ["--help=1"],
        ["-hx"],
        ["ribbon"],
        ["ribbon", "foo", "in.json"],
        ["ribbon", "dm", "in.json", "medial"],
        ["lift", "in.json", "--t"],
        ["lift", "in.json", "--t=5"],
        ["lift", "in.json", "--s", "[1]", "--max-n", "x", "--t"],
        ["check", "in.json", "--=x"],
        ["check", "in.json", "-x"],
        ["check", "in.json", "-1"],
        ["check", "in.json", "-"],
        ["check", "in.json", "---x"],
        ["check", "in.json", "--max-n", "-x"],
        ["check", "in.json", "--max-n", "-1e3"],
        ["check", "in.json", "--max-n", "-.5"],
        ["check", "in.json", "--max-n", "--", "3"],
        ["check", "in.json", "--max-n", "1", "--max-n", "x"],
        ["check", "in.json", "--format="],
        ["check", "in.json", "--format", "-1"],
        ["check", "in.json", "g", "--", "h"],
        ["check", "in.json", "--max-n", "3", "--"],
        ["check", "in.json", "--", "--max-n"],
        ["check", "--frob", "--"],
        ["check", "-h=x"],
        ["check", "-hhx"],
        ["orbit", "in.json", "--iota", "--"],
        ["orbit", "in.json", "--iota="],
        ["extract", "in.json"],
        ["uniformize", "in.json", "--g", "~"],
    ]
    for name in cli._COMMANDS:
        base = _base(name)
        cases += [[name], base + ["extra"], base + ["--frob"], base + ["--help=x"]]
        for option, opt in _options(name).items():
            if opt.type is None:
                cases.append(base + [f"{option}=1"])
                continue
            cases += [base + [option], base + [option, "--frob"]]
            if opt.type is int or opt.choices:
                cases += [base + [option, "x"], base + [f"{_abbreviation(name, option)}=1.5"]]
    return cases


class TestArgv:
    """The command table's parse against ``oracles.argparse_oracle``, the
    argparse parser it replaced."""

    def test_valid_argv_parses_as_argparse_did(self):
        """The namespace of each valid argv, ``command`` aside."""
        cases = _valid_argv()
        assert len(cases) > 200
        differ = []
        for argv in cases:
            expected = vars(_ORACLE.parse_args(argv))
            del expected["command"]
            if vars(cli._parse(argv)) != expected:
                differ.append(argv)
        assert differ == []

    def test_bad_argv_is_refused_in_argparse_words(self, capsys):
        """Exit 1, nothing on stdout, argparse's ``error:`` line word for
        word, then its usage on one line."""
        cases = _bad_argv()
        assert len(cases) > 100
        differ = []
        for argv in cases:
            with pytest.raises(oracles.ArgparseRefusal) as refusal:
                _ORACLE.parse_args(argv)
            message, usage = str(refusal.value).split("\n", 1)
            if run(capsys, *argv) != (1, "", f"error: {message}\n{' '.join(usage.split())}\n"):
                differ.append(argv)
        assert differ == []

    @pytest.mark.parametrize(
        "argv", [["-h"], ["--he"], ["-hh"], ["--frob", "-h"], *([name, "--help"] for name in cli._COMMANDS)]
    )
    def test_help_is_written_to_stdout(self, capsys, argv):
        """``-h`` or ``--help``, or an abbreviation, writes the help to
        stdout and exits 0: the usage line, then a line per command, or
        per option of the command, as argparse's help does."""
        with pytest.raises(SystemExit) as done, contextlib.redirect_stdout(io.StringIO()):
            _ORACLE.parse_args(argv)
        assert done.value.code == 0
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        name = argv[-2] if argv[-1] == "--help" else None
        assert out.startswith(cli._usage(name) + "\n\n")
        listed = cli._COMMANDS if name is None else _options(name)
        assert all(f"\n  {word}" in out for word in listed)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--threads=--"], "argument --threads: invalid int value: '--'"),
            (["--max-n=--"], "argument --max-n: invalid int value: '--'"),
            (["--format=--"], "argument --format: invalid choice: '--' (choose from 'json', 'text')"),
        ],
    )
    def test_dashes_given_with_equals_are_the_value(self, capsys, cone_file, argv, message):
        """``--name=--`` gives ``--`` as the value.  argparse dropped it and
        stored an empty list, which ended in a traceback or, for
        ``--format``, in the text format."""
        code, out, err = run(capsys, "check", cone_file, *argv)
        assert (code, out) == (1, "") and err.startswith(f"error: {message}\nusage: twuality check ")

    def test_dashes_given_with_equals_reach_the_command(self, capsys, cone_file):
        assert run(capsys, "apply", cone_file, "--ops=--") == (1, "", "error: bad operation token '--'\n")

    @pytest.mark.parametrize(
        "argv, head",
        [
            (
                ["uniformize", FILE, "--gvec", "*,+,+", "--mu", "[1,2,3]", "--g", "~", "--max-n", "x" * 5000],
                "argument --max-n: invalid int value: '" + "x" * 80 + "'…",
            ),
            (["check", FILE, "--" + "x" * 5000], "unrecognized arguments: --" + "x" * 78 + "…"),
            (["check", FILE] + ["x"] * 5000, "unrecognized arguments: " + "x " * 40 + "…"),
            (["lift", FILE, "--t=" + "x" * 5000], "ambiguous option: --t=" + "x" * 76 + "… could match --threads, --tau"),
            (["check", FILE, "--format", "x" * 5000], "argument --format: invalid choice: '" + "x" * 80 + "'… (choose"),
            (["ribbon", "x" * 5000, FILE], "argument what: invalid choice: '" + "x" * 80 + "'… (choose"),
            (["x" * 5000, FILE], "argument command: invalid choice: '" + "x" * 80 + "'… (choose"),
            (["orbit", FILE, "--iota=" + "x" * 5000], "argument --iota: ignored explicit argument '" + "x" * 80 + "'…\n"),
        ],
        ids=["bad-int", "unknown-option", "many-extras", "ambiguous", "format", "what", "command", "flag-value"],
    )
    def test_long_argv_word_is_quoted_up_to_the_bound(self, capsys, cone_file, argv, head):
        """The ``error:`` line quotes the first ``QUOTE_LIMIT`` characters
        of the word it refuses, then ``…``, and stays under 300
        characters; the usage line follows."""
        code, out, err = run(capsys, *with_file(argv, cone_file))
        line, usage = err.split("\n", 1)
        assert (code, out) == (1, "") and (line + "\n").startswith(f"error: {head}")
        assert len(line) < 300 and usage.startswith("usage: twuality") and usage.count("\n") == 1


class TestModuleEntryPoint:
    def test_python_m_twuality(self, tmp_path, capsys, cone_file):
        """``python -m twuality`` in a fresh interpreter: a malformed file
        exits 1 with one ``error:`` line and no traceback, and a valid
        ``check`` exits 0 with the stdout of ``main`` in-process."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out, err = run_module("check", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert run_module("check", cone_file) == run(capsys, "check", cone_file)

    def test_main_module_in_process(self, capsys, monkeypatch, cone_file):
        """``twuality.__main__`` run as ``__main__`` in this process reads
        ``sys.argv`` and exits with the code and output of ``main``."""
        monkeypatch.setattr(sys, "argv", ["twuality", "check", cone_file])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("twuality", run_name="__main__")
        assert (done.value.code, *capsys.readouterr()) == run(capsys, "check", cone_file)


_DM = ["ribbon", "dm", FILE]
_MU = ["uniformize", FILE, "--gvec", "*,+,+", "--g", "~", "--mu"]


def _ribbon(vertices, edges):
    return {"vertices": vertices, "edges": edges}


# values of a file too long to quote whole: 20,000 members, 200 members, 200 characters
_MANY_KEYS = {str(k): 1 for k in range(20_000)}
_MANY_ONES = [1] * 20_000
_MANY_PAIRS = [[1, 1]] * 20_000
_KEYS_200 = {str(k): 1 for k in range(200)}
_ONES_200 = [1] * 200
_X_200 = "x" * 200
# an integer of 4,001 digits, under the limit ``int`` converts
_BIG = 10**4000


class TestInputBoundary:
    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["mm-check", FILE], {"n": 1, "bases": 5}),
            (["extract", FILE, "--tau", "[[1,2,3]]", "--sigma", "[1]"], {"n": 1, "bases": 5}),
            (["mm-check", FILE], {"n": 1, "bases": [[[True, 1]]]}),
            (["mm-check", FILE], {"n": 1, "bases": [[[1, True]]]}),
            (["ribbon", "dm", FILE], {"vertices": 3, "edges": []}),
            (["ribbon", "dm", FILE], {"vertices": [5], "edges": []}),
            (["ribbon", "dm", FILE], {"vertices": [[1, 2]], "edges": [[[1, 2], 1]]}),
            (["ribbon", "dm", FILE], {"vertices": [[1, 2]], "edges": [[[1, 2], True, 1]]}),
            (["check", FILE], {"n": 99, "feasible": [[1]]}),
            # a multimatroid is a 4**n-bit table, capped at 10 classes
            (["mm-check", FILE], {"n": 11, "bases": [[[k, 1] for k in range(1, 12)]]}),
            (
                ["extract", FILE, "--tau", json.dumps([[1, 2, 3]] * 11), "--sigma", json.dumps([*range(1, 12)])],
                {"n": 11, "bases": []},
            ),
        ],
    )
    def test_malformed_input_is_one_error_line(self, capsys, tmp_path, argv, payload):
        path = write(tmp_path, "in.json", payload)
        code, out, err = run(capsys, *with_file(argv, path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe", "is not UTF-8 text"), (b"[" * 100_000, "nests its JSON too deeply")],
        ids=["not-utf8", "deep-nesting"],
    )
    def test_unreadable_json_is_one_error_line(self, capsys, tmp_path, content, message):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "check", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_long_path_is_clipped_to_the_bound(self, capsys):
        """A 5,000-character path that cannot be opened is named once, by
        its first ``QUOTE_LIMIT`` characters and ``…``."""
        path = "a/" * 2497 + "x.json"
        code, out, err = run(capsys, "check", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {path[:80]}…: [Errno ") and err.count("\n") == 1
        assert len(err) < 300

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe", "is not UTF-8 text: "),
            (b"[" * 100_000, "nests its JSON too deeply"),
            (b"{", "is not valid JSON: "),
        ],
        ids=["not-utf8", "deep-nesting", "not-json"],
    )
    def test_long_path_of_a_bad_file_is_clipped_to_the_bound(self, capsys, tmp_path, content, message):
        """A readable file at a path over ``QUOTE_LIMIT`` characters: each
        message names the path by its first 80 characters and ``…``."""
        path = tmp_path / ("d" * 100) / "in.json"
        path.parent.mkdir()
        path.write_bytes(content)
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {str(path)[:80]}… {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 1,\r\n "feasible": [[1]]}\r\n',
            b'{"n": 1,\r "feasible": [[1]]}\r',
            b'{"n": 1,\r\n\r "feasible": [[1]],\r\n oops}',
            b'{"n": 1,\r\n "feasible": [["\r\n"]]}',
            b'{"n": 1,\r\n "feasible": [["\r"]]}',
            b'{"n": 1,\r\n "feasible": [[1]]}\r\n\xff',
            b'\xef\xbb\xbf{"n": 0, "feasible": []}',
        ],
        ids=["crlf", "cr", "crlf-error", "crlf-in-string", "cr-in-string", "crlf-not-utf8", "bom"],
    )
    def test_file_reads_as_a_text_mode_read(self, tmp_path, content):
        """The file is read as bytes and decoded here; its value, or the
        decoder's message with its positions, is that of ``json.load`` on
        the file opened in text mode, where ``\\r\\n`` and ``\\r`` read as
        ``\\n``."""
        path = tmp_path / "in.json"
        path.write_bytes(content)
        try:
            with open(path, encoding="utf-8") as fh:
                expected = json.load(fh)
        except ValueError as exc:  # a ``JSONDecodeError`` or a ``UnicodeDecodeError``
            with pytest.raises(ValidationError) as refused:
                cli._load_json(str(path))
            assert str(refused.value).endswith(f": {exc}")
        else:
            assert cli._load_json(str(path)) == expected

    @pytest.mark.parametrize(
        "argv, payload, message",
        [
            (_DM, _ribbon([[1, 2]], [{"ends": [1, 2], "sign": 1}]), "edge object missing key 'label'"),
            (_DM, _ribbon([[1, 1]], [[[1, 1], 1, 1]]), "edge ends [1, 1] must be two distinct half-edges"),
            (_DM, _ribbon([[1, 2]], [[[1, 2], 1, 1.0]]), "edge label 1.0 must be an integer"),
            (_DM, _ribbon([[0, 2]], [[[0, 2], 1, 1]]), "half-edge id 0 must be a positive integer"),
            (
                _DM,
                _ribbon([[1, 2]], [[[1, 2], 1, 1], [[2, 1], 1, 2]]),
                "a half-edge appears twice among the edge ends",
            ),
            (["check", FILE], {"n": 2, "feasible": [[1], 2]}, "each feasible set must be a list"),
            (["mm-check", FILE], {"n": 1, "bases": [[[1]]]}, "carrier element [1] must be an [index, role] pair"),
            (["mm-check", FILE], {"n": 2, "bases": [[[1, 1], [1, 2]]]}, "basis [[1, 1], [1, 2]] visits class 1 twice"),
            (_MU + ["[1,2"], CONE, "unterminated one-line permutation '[1,2'"),
            (_MU + ["[1,x,3]"], CONE, "bad one-line permutation '[1,x,3]'"),
            (_MU + ["(1 2)x"], CONE, "bad cycle notation '(1 2)x'"),
            (_MU + ["(1 x)"], CONE, "bad cycle '1 x'"),
            (["lift", FILE, "--sigma", "[2,1"], CONE, "unterminated one-line permutation '[2,1'"),
            (["lift", FILE, "--sigma", "[2,1,y]"], CONE, "bad one-line permutation '[2,1,y]'"),
            (["lift", FILE, "--sigma", "(1 2) 3"], CONE, "bad cycle notation '(1 2) 3'"),
            (["lift", FILE, "--sigma", "(1 2)(3 z)"], CONE, "bad cycle '3 z'"),
            (["check", FILE, "--threads", "0"], CONE, "--threads must be positive"),
            (["apply", FILE, "--ops", "*{1,1}"], CONE, "repeated element in '*{1,1}'"),
            (["uniformize", FILE, "--gvec", "1,1", "--mu", "[1,2,3]", "--g", "~"], CONE, "flip vector has 2 entries, expected 3"),
            (_MU + ["(1 5)"], CONE, "cycle entry 5 out of range 1..3"),
            (["check", FILE], {"n": 2, "feasible": {}}, "'feasible' must be a list of lists"),
            (["lift", FILE, "--tau", "[[1,2,3]]"], CONE, "triple covers 1 classes, expected 3"),
        ],
    )
    def test_each_check_names_its_fault(self, capsys, tmp_path, argv, payload, message):
        path = write(tmp_path, "in.json", payload)
        assert run(capsys, *with_file(argv, path)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["apply", FILE, "--ops", "+{2} *{" + "1" * 5000 + "}"], "bad operation token '*{" + "1" * 78 + "'…\n"),
            (["lift", FILE, "--tau", DEEP_TAU], "bad transversal triple '" + "[" * 80 + "'…: "),
            (["lift", FILE, "--tau", LONG_TAU], "bad transversal triple '[[1,2," + "1" * 74 + "'…: "),
            (["extract", FILE, "--sigma", "[1]", "--tau", DEEP_TAU], "bad transversal triple '" + "[" * 80 + "'…: "),
            (["extract", FILE, "--sigma", "[1]", "--tau", LONG_TAU], "bad transversal triple '[[1,2," + "1" * 74 + "'…: "),
            (["orbit-via-lift", FILE, "--tau", DEEP_TAU], "bad transversal triple '" + "[" * 80 + "'…: "),
            (["orbit-via-lift", FILE, "--tau", LONG_TAU], "bad transversal triple '[[1,2," + "1" * 74 + "'…: "),
        ],
        ids=[
            "ops-long-literal",
            *(f"{command}-{kind}" for command in ("lift", "extract", "ovl") for kind in ("deep", "long-literal")),
        ],
    )
    def test_over_deep_or_over_long_option_is_one_error_line(self, capsys, tmp_path, argv, message):
        """The line quotes the first ``QUOTE_LIMIT`` characters of the
        argument, then ``…``; the decoder's reason follows a triple's."""
        payload = lift(ss(1, [()])).to_json() if argv[0] == "extract" else CONE
        code, out, err = run(capsys, *with_file(argv, write(tmp_path, "in.json", payload)))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1 and len(err) < 300

    @pytest.mark.parametrize(
        "argv, text, value, message",
        [
            (["apply", FILE, "--ops"], "x" * 200, "x" * 200, "bad operation token {}"),
            (["apply", FILE, "--ops"], "*{" + "1," * 99 + "1}", "*{" + "1," * 99 + "1}", "repeated element in {}"),
            (_MU, "[" + "1," * 100, "[" + "1," * 100, "unterminated one-line permutation {}"),
            (_MU, "[" + "x," * 100 + "]", "[" + "x," * 100 + "]", "bad one-line permutation {}"),
            (_MU, "(1 2)" + "x" * 200, "(1 2)" + "x" * 200, "bad cycle notation {}"),
            (_MU, "(" + "1 " * 100 + "x)", "1 " * 100 + "x", "bad cycle {}"),
            (_MU, "z" * 200, "z" * 200, "unrecognized permutation syntax {}"),
            (["lift", FILE, "--sigma"], "z" * 200, "z" * 200, "unrecognized permutation syntax {}"),
            (["lift", FILE, "--tau"], "[" * 81, "[" * 81, "bad transversal triple {}: "),
            (["uniformize", FILE, "--gvec", "*,+,+", "--mu", "[1,2,3]", "--g"], "x" * 200, "x" * 200, "unknown flip token {}"),
            (["uniformize", FILE, "--mu", "[1,2,3]", "--g", "~", "--gvec"], "*,+," + "x" * 200, "x" * 200, "unknown flip token {}"),
            (["apply", FILE, "--ops"], f"*{{{_BIG}}}", _BIG, "element {} out of range 1..3"),
            (_MU, f"(1 {_BIG})", _BIG, "cycle entry {} out of range 1..3"),
            (_MU, f"[1,2,{_BIG}]", [1, 2, _BIG], "{} is not a permutation of 1..3"),
            (["lift", FILE, "--sigma"], f"[1,2,{_BIG}]", [1, 2, _BIG], "{} is not a permutation of 1..3"),
        ],
        ids=[
            "ops-junk", "ops-repeated", "mu-unterminated", "mu-one-line", "mu-notation",
            "mu-cycle", "mu-syntax", "sigma-syntax", "tau", "g", "gvec",
            "ops-element", "mu-cycle-entry", "mu-images", "sigma-images",
        ],
    )
    def test_long_argument_is_quoted_up_to_the_bound(self, capsys, tmp_path, argv, text, value, message):
        """Each message that quotes an argument, a token or cycle of it, or
        an integer or image list read from it, quotes the first
        ``QUOTE_LIMIT`` characters of its ``repr`` (of a text, of the text)
        and then ``…``."""
        path = write(tmp_path, "in.json", CONE)
        cut = repr(value[:80]) if isinstance(value, str) else repr(value)[:80]
        code, out, err = run(capsys, *with_file(argv, path), text)
        assert code == 1 and out == ""
        assert err.startswith("error: " + message.format(cut + "…")) and err.count("\n") == 1
        assert len(err) < 300

    @pytest.mark.parametrize(
        "roles, reason",
        [
            ([[1, 2, 3]] + [5] * 100, "roles {} must be a list of slot lists"),
            ([[1, 2, 3], [5] * 100], "class roles {} must be a permutation of (1, 2, 3)"),
        ],
        ids=["roles", "class-roles"],
    )
    def test_long_triple_reason_is_cut_at_the_bound(self, capsys, tmp_path, roles, reason):
        """The triple's own reason quotes the first 80 characters of the
        ``repr`` of what it refuses, then ``…``."""
        text = json.dumps(roles)
        refused = roles if reason.startswith("roles") else roles[1]
        reason = reason.format(repr(refused)[:80] + "…")
        code, out, err = run(capsys, "lift", write(tmp_path, "in.json", CONE), "--tau", text)
        assert (code, out) == (1, "")
        assert err == f"error: bad transversal triple {text[:80]!r}…: {reason}\n"

    def test_quote_bound(self):
        """80 characters are quoted whole, as before the bound; one more
        and the quote stops at 80.  A string is cut before its ``repr``,
        any other value after."""
        assert QUOTE_LIMIT == 80
        text = "'a\"" + "b" * 77
        assert quoted(text) == repr(text) and quoted(text + "c") == repr(text) + "…"
        value = ["x" * 76]  # its repr is 80 characters
        assert quoted(value) == repr(value) and quoted(value + [2]) == repr(value + [2])[:80] + "…"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["check", FILE], '{"n": ' + "1" * 5000 + ', "feasible": []}'),
            (["ribbon", "dm", FILE], '{"vertices": [[1, 2]], "edges": [[[1, 2], 1, ' + "1" * 5000 + "]]}"),
        ],
        ids=["ground-size", "edge-label"],
    )
    def test_over_long_integer_literal_in_a_file_is_one_error_line(self, capsys, tmp_path, argv, text):
        """Written as raw text: ``json.dumps`` cannot write the literal,
        since ``str`` of such an ``int`` hits the same limit."""
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *with_file(argv, str(path)))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, payload, value, message",
        [
            (_DM, _ribbon(_MANY_KEYS, []), _MANY_KEYS, "vertices {} must be a list of rotation lists"),
            (_DM, _ribbon([], _KEYS_200), _KEYS_200, "edges {} must be a list"),
            (_DM, _ribbon([], [_X_200]), _X_200, "edge {} must be [ends, sign, label]"),
            (_DM, _ribbon([], [[_ONES_200, 1, 1]]), _ONES_200, "edge ends {} must be two distinct half-edges"),
            (_DM, _ribbon([], [[[1, 2], _ONES_200, 1]]), _ONES_200, "edge sign must be +1 or -1, got {}"),
            (_DM, _ribbon([], [[[1, 2], 1, _ONES_200]]), _ONES_200, "edge label {} must be an integer"),
            (_DM, _ribbon([[_X_200]], [[[1, 2], 1, 1]]), _X_200, "half-edge id {} must be a positive integer"),
            (["check", FILE], {"n": _MANY_ONES, "feasible": []}, _MANY_ONES, "'n' must be an integer in 0..16, got {}"),
            (["check", FILE], {"n": 2, "feasible": [[_X_200]]}, _X_200, "element {} is not an integer"),
            (["mm-check", FILE], {"n": _ONES_200, "bases": []}, _ONES_200, "class count must be an integer in 0..10, got {}"),
            (["mm-check", FILE], {"n": 1, "bases": [_MANY_PAIRS]}, _MANY_PAIRS, "basis {} must list one member per class"),
            (["mm-check", FILE], {"n": 1, "bases": [[_ONES_200]]}, _ONES_200, "carrier element {} must be an [index, role] pair"),
            (["mm-check", FILE], {"n": 1, "bases": [[[1, _X_200]]]}, [1, _X_200], "carrier element {} out of range"),
            (["check", FILE], {"n": 3, "feasible": [[_BIG]]}, _BIG, "element {} out of range 1..3"),
        ],
        ids=[
            "vertices", "edges", "edge", "edge-ends", "sign", "label", "half-edge",
            "n", "element", "class-count", "basis", "carrier", "carrier-range", "element-range",
        ],
    )
    def test_long_file_value_is_quoted_up_to_the_bound(self, capsys, tmp_path, argv, payload, value, message):
        """A message that quotes a value read from the file quotes the
        first ``QUOTE_LIMIT`` characters of its ``repr`` (of a text, of the
        text), then ``…``: one short line, however large the value."""
        cut = repr(value[:80]) if isinstance(value, str) else repr(value)[:80]
        code, out, err = run(capsys, *with_file(argv, write(tmp_path, "in.json", payload)))
        assert (code, out, err) == (1, "", "error: " + message.format(cut + "…") + "\n")
        assert len(err) < 300

    def test_ground_size_checked_before_sets(self, capsys, tmp_path):
        path = write(tmp_path, "big.json", {"n": 99, "feasible": [[1]]})
        assert run(capsys, "check", path)[2] == "error: 'n' must be an integer in 0..16, got 99\n"

    def test_parser_reuse_matches_fresh_parser(self, capsys, cone_file):
        """The calls in turn in one process print what each prints in a
        fresh interpreter, so no call leaves a changed table default for
        the next."""
        calls = [
            ("orbit", cone_file, "--iota"),
            ("orbit", cone_file),
            ("check", cone_file, "--format", "text"),
            ("check", cone_file),
        ]
        fresh = [run_module(*argv) for argv in calls]
        assert [run(capsys, *argv) for argv in calls] == fresh
        assert fresh[0] != fresh[1] and fresh[2] != fresh[3]


_KEYS = ("n", "feasible", "bases", "roles", "vertices", "edges", "ends", "sign", "label")
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 4), st.sampled_from([99, 1.0, -1.0, "", "1"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)
    ),
    max_leaves=8,
)
_SMALL = st.integers(-1, 4)
_SETS = st.lists(st.lists(_SMALL, max_size=3), max_size=4)
_SET_SYSTEMS = st.fixed_dictionaries({"n": st.one_of(_SMALL, _JSON), "feasible": st.one_of(_SETS, _JSON)})
_PAIRS = st.lists(st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=3), max_size=3)
_MULTIMATROIDS = st.fixed_dictionaries({"n": st.one_of(_SMALL, _JSON), "bases": st.one_of(_PAIRS, _JSON)})
_EDGES = st.lists(st.one_of(st.tuples(st.lists(_SMALL, max_size=3), _SMALL, _SMALL).map(list), _JSON), max_size=3)
_RIBBONS = st.fixed_dictionaries(
    {"vertices": st.one_of(st.lists(st.lists(_SMALL, max_size=4), max_size=3), _JSON), "edges": st.one_of(_EDGES, _JSON)}
)
_TAU = st.one_of(st.just("[[1,2,3]]"), st.sampled_from([DEEP_TAU, LONG_TAU]), _JSON.map(json.dumps))
# (input strategy, argument list); a trailing --tau takes a drawn value
_COMMANDS = [
    (_SET_SYSTEMS, ["check", FILE]),
    (_SET_SYSTEMS, ["apply", FILE, "--ops", "*{1} +{2} (1 2)"]),
    (_SET_SYSTEMS, ["orbit", FILE]),
    (_SET_SYSTEMS, ["orbit", FILE, "--iota"]),
    (_SET_SYSTEMS, ["selftwual", FILE]),
    (_SET_SYSTEMS, ["selftwual", FILE, "--uniform-only"]),
    (_SET_SYSTEMS, ["uniformize", FILE, "--gvec", "*,+,+", "--mu", "[1,2,3]", "--g", "~"]),
    (_SET_SYSTEMS, ["lift", FILE, "--tau"]),
    (_SET_SYSTEMS, ["orbit-via-lift", FILE, "--iota", "--tau"]),
    (_MULTIMATROIDS, ["extract", FILE, "--sigma", "[1]", "--tau"]),
    (_MULTIMATROIDS, ["mm-check", FILE]),
    (_RIBBONS, ["ribbon", "dm", FILE]),
    (_RIBBONS, ["ribbon", "medial", FILE]),
    (_RIBBONS, ["ribbon", "verify-t63", FILE]),
]

# the one error line of each kind's validator, on a valid file of another kind
_KIND_ERRORS = {
    _SET_SYSTEMS: "set-system object needs 'n' and 'feasible'",
    _MULTIMATROIDS: "multimatroid object needs 'n' and 'bases'",
    _RIBBONS: "ribbon-graph object needs 'vertices' and 'edges'",
}


@pytest.mark.parametrize(
    "kind, argv", _COMMANDS, ids=[" ".join(a for a in argv if a is not FILE) for _, argv in _COMMANDS]
)
def test_wrong_kind_of_file_is_one_error_line(capsys, tmp_path, kind, argv):
    """Each command form given a valid file of another kind: exit 1,
    nothing on stdout and the one error line of the validator of the kind
    it reads.  The file is read before any option, so a trailing ``--tau``
    takes a value that would not parse."""
    files = {
        _SET_SYSTEMS: {"n": 3, "feasible": [[3], [1, 3], [2, 3]]},
        _MULTIMATROIDS: lift(ss(3, [(3,), (1, 3), (2, 3)])).to_json(),
        _RIBBONS: cat.untwisted_loop().to_json(),
    }
    extra = ["zz"] if argv[-1] == "--tau" else []
    for other, payload in files.items():
        if other is not kind:
            path = write(tmp_path, "other.json", payload)
            assert run(capsys, *with_file(argv, path), *extra) == (1, "", f"error: {_KIND_ERRORS[kind]}\n")


@st.composite
def _cli_calls(draw):
    kind, argv = draw(st.sampled_from(_COMMANDS))
    payload = draw(st.one_of(kind, _JSON))
    extra = [draw(_TAU)] if argv[-1] == "--tau" else []
    return payload, argv + extra


@settings(max_examples=150)
@given(_cli_calls())
def test_fuzz_malformed_json_never_crashes(tmp_path_factory, call):
    """Every subcommand on malformed JSON shapes, with --max-n 3 bounding
    the work: exit 0-3 (4 is a bug), no traceback, canonical JSON on
    stdout whenever there is a result."""
    payload, argv = call
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    full = with_file(argv, str(path)) + ["--max-n", "3"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (full, payload, err)
    assert "Traceback" not in err
    if code in (0, 3):
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    else:
        assert out == "" and err
