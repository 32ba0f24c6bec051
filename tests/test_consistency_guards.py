"""Each ``ConsistencyError`` guard, reached by breaking one helper.

A guard re-checks a result that the mathematics guarantees, so no input
reaches it while the helpers are right.  Each test patches one helper so
that the guard fires.  Where a CLI command reaches the guard, the command
must report it as a bug: exit 4, nothing on stdout and one
``internal error:`` line on stderr, never the ``error:`` line of bad
input.  ``transport`` and ``normalize_rep`` have no command, so their
guards are checked in the library."""

import json

import pytest

from twuality import ConsistencyError, SetSystem, TwualityElement, lift, orbit_engine, stabilizer_search
from twuality import multimatroid, set_system
from twuality.cli import main
from twuality.twuality_group import Perm, parse_flip

CONE = SetSystem.from_sets(3, [(3,), (1, 3), (2, 3)])


def run_cli(capsys, tmp_path, payload, *argv):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_augmentation_failure_not_found_is_internal(capsys, tmp_path, monkeypatch):
    """``is_multimatroid``, told by a broken exchange walk that the first
    transversal's independents fail, finds no augmentation failure in
    them (``multimatroid._augmentation_failure``)."""
    monkeypatch.setattr(multimatroid, "_exchange_failures", lambda table, n: 1)
    code, out, err = run_cli(capsys, tmp_path, lift(CONE).to_json(), "mm-check")
    assert (code, out) == (4, "")
    assert err == "internal error: transversal [1, 1, 1] induces a matroid after all\n"


def test_exchange_partner_not_found_is_internal(capsys, tmp_path, monkeypatch):
    """``check`` on ``U(2, 4)``, which is not binary, so its exchange walk
    runs: a walk that marks every set failing sends the witness scan
    (``set_system._exchange_failure``) after a partner that no set is."""
    monkeypatch.setattr(set_system, "_exchange_failures", lambda table, n: table)
    u24 = SetSystem.from_sets(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    code, out, err = run_cli(capsys, tmp_path, u24.to_json(), "check")
    assert (code, out) == (4, "")
    assert err == "internal error: no exchange partner for the failing set (1, 2)\n"


_UNIFORMIZE = ["uniformize", "--gvec", "*+,*+", "--mu", "[2,1]", "--g", "*+"]


def test_no_conjugator_is_internal(capsys, tmp_path, monkeypatch):
    """The identity stabilizer and the target ``*``: a cycle condition
    that passes every input lets ``uniformize`` look for a flip that
    conjugates the identity onto ``*``."""
    monkeypatch.setattr(orbit_engine, "cycle_condition", lambda gvec, mu, g: True)
    argv = ["uniformize", "--gvec", "1,1,1", "--mu", "[1,2,3]", "--g", "*"]
    code, out, err = run_cli(capsys, tmp_path, CONE.to_json(), *argv)
    assert (code, out) == (4, "")
    assert err == "internal error: no conjugator despite matching orders\n"


def test_uniformized_system_not_fixed_is_internal(capsys, tmp_path, monkeypatch):
    """``{{1}, {2}}`` is fixed by ``(*+ *+, (1 2))``, already the uniform
    pair of ``*+``.  A ``flip_pow`` that ignores its exponent makes the
    search conjugate the cycle product ``+*`` onto ``*+`` instead of onto
    ``(*+)**2 = +*``, and the recursion then builds a vector that moves the
    system off the uniform pair's fixed points."""
    D = SetSystem.from_sets(2, [(1,), (2,)])
    code, out, err = run_cli(capsys, tmp_path, D.to_json(), *_UNIFORMIZE)
    assert (code, err) == (0, "") and json.loads(out)["hvec"] == ["1", "1"]
    monkeypatch.setattr(orbit_engine, "flip_pow", lambda g, m: g)
    code, out, err = run_cli(capsys, tmp_path, D.to_json(), *_UNIFORMIZE)
    assert (code, out) == (4, "")
    assert err == "internal error: uniformized system is not fixed by the uniform pair\n"


def test_transported_element_not_a_stabilizer(monkeypatch):
    """An ``inverse`` that returns the element itself conjugates by
    ``move`` on both sides; ``move`` is ``*+`` at 1, of order 3."""
    hit = stabilizer_search(CONE)[1]
    stab = TwualityElement(hit.gvec, hit.perm)
    move = TwualityElement(tuple(map(parse_flip, ("*+", "1", "1"))), Perm([1, 2, 3]))
    orbit_engine.transport(CONE, stab, move)
    monkeypatch.setattr(TwualityElement, "inverse", lambda self: self)
    with pytest.raises(ConsistencyError, match="^transported element fails to stabilize the moved system$"):
        orbit_engine.transport(CONE, stab, move)


def test_normalized_representative_not_normal(monkeypatch):
    """``CONE`` twisted by its least set ``{3}`` has the singletons ``{1}``
    and ``{2}``; a loop complementation that changes nothing keeps them."""
    assert orbit_engine.normalize_rep(CONE).is_normal
    monkeypatch.setattr(orbit_engine, "loop_complement", lambda D, I: D)
    with pytest.raises(ConsistencyError, match="^normalized representative is not normal/singleton-free$"):
        orbit_engine.normalize_rep(CONE)
