import json

import pytest

from twuality import ConsistencyError, Multimatroid, RibbonGraph, SetSystem
from twuality.cli import main

import ribbon_catalog as cat

ss = SetSystem.from_sets


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (code, err)
    return json.loads(out)


@pytest.fixture()
def cone_file(tmp_path):
    return write(tmp_path, "cone.json", {"n": 3, "feasible": [[3], [1, 3], [2, 3]]})


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

    def test_budget_exit_code(self, capsys, cone_file):
        code, _, err = run(capsys, "orbit", cone_file, "--max-n", "2")
        assert code == 2 and "capped" in err

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


    @pytest.mark.parametrize(
        "tau", ["5", "[5]", '{"roles": 5}', '{"slots": []}', '[[1, 2, 3], [2, 1, 3], [true, 2, 3]]']
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

    def test_verify_t63_ok(self, capsys, loop_file):
        code, out, err = run(capsys, "ribbon", "verify-t63", loop_file)
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_verify_t63_counterexample_exit(self, capsys, loop_file, monkeypatch):
        from twuality.ribbon import MedialLiftReport
        import twuality.cli as cli_mod

        fake = MedialLiftReport(False, ((1,),), ())
        monkeypatch.setattr(cli_mod, "verify_medial_lift", lambda G, **kw: fake)
        code, out, err = run(capsys, "ribbon", "verify-t63", loop_file)
        assert code == 3
        assert json.loads(out)["equal"] is False


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

    def test_internal_error_exit_code(self, capsys, tmp_path, monkeypatch):
        import twuality.cli as cli_mod

        def broken(G):
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
