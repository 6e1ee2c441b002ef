"""scripts/fingerprint.py's orbit diff (--diff) and exit status on hand-built spectra."""

import dataclasses
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from bilop import SingularTriple, Spectrum

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spectrum(signs=(1.0, 1.0, 1.0), drop=None) -> Spectrum:
    """Three triples of (2, 3, 4) unit vectors, each in the given sign variant, without triple drop."""
    rng = np.random.default_rng(11)
    triples = []
    for tau in (3.0, 2.0, 2.0 + 1e-12):
        x, y, z = (s * v / np.linalg.norm(v) for s, v in zip(signs, (rng.standard_normal(n) for n in (2, 3, 4))))
        triples.append(SingularTriple(tau, x, y, z, (0.0, 0.0, 0.0)))
    return Spectrum(tuple(t for i, t in enumerate(triples) if i != drop))


def answer(fingerprint, spec: Spectrum) -> list:
    """A gallery-shaped answer as it is saved: seed, then name, a norm and the spectrum."""
    return json.loads(json.dumps(fingerprint.plain((1, ("t", (3.0, spec.triples[0]), spec)))))


def test_a_dropped_triple_is_one_lost_orbit(fingerprint):
    lines = fingerprint.orbit_diff(answer(fingerprint, spectrum()), answer(fingerprint, spectrum(drop=2)), "1/t")
    assert lines == ["1/t: 1 orbit(s) lost, 0 gained (3 -> 2)", f"    lost   tau={2.0 + 1e-12!r}"]
    back = fingerprint.orbit_diff(answer(fingerprint, spectrum(drop=2)), answer(fingerprint, spectrum()), "1/t")
    assert back[0] == "1/t: 0 orbit(s) lost, 1 gained (2 -> 3)"


@pytest.mark.parametrize("signs", [(-1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, -1.0)])
def test_a_sign_flipped_copy_reports_nothing(fingerprint, signs):
    assert fingerprint.orbit_diff(answer(fingerprint, spectrum()), answer(fingerprint, spectrum(signs)), "1/t") == []


def test_a_flip_outside_the_orbit_is_a_change(fingerprint):
    lines = fingerprint.orbit_diff(answer(fingerprint, spectrum()), answer(fingerprint, spectrum((-1.0, 1.0, 1.0))), "1/t")
    assert lines[0] == "1/t: 3 orbit(s) lost, 3 gained (3 -> 3)"


def test_main_prints_only_changed_spectra(fingerprint, tmp_path, monkeypatch, capsys):
    def fake(spec):
        return lambda seeds, families: iter([("gallery", "1/t", answer(fingerprint, spec))])

    monkeypatch.setattr(fingerprint, "answers", fake(spectrum()))
    fingerprint.main(["--families", "gallery", "--save", str(tmp_path)])
    capsys.readouterr()
    monkeypatch.setattr(fingerprint, "answers", fake(spectrum((1.0, -1.0, -1.0))))
    fingerprint.main(["--families", "gallery", "--diff", str(tmp_path)])
    assert len(capsys.readouterr().out.splitlines()) == 1  # the hash line alone
    monkeypatch.setattr(fingerprint, "answers", fake(spectrum(drop=0)))
    fingerprint.main(["--families", "gallery", "--diff", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["gallery            1/t: 1 orbit(s) lost, 0 gained (3 -> 2)", "gallery                lost   tau=3.0"]


def serve(fingerprint, monkeypatch, spec: Spectrum) -> None:
    """Make main() see one gallery answer holding spec."""
    saved = answer(fingerprint, spec)
    monkeypatch.setattr(fingerprint, "answers", lambda seeds, families: iter([("gallery", "1/t", saved)]))


@pytest.mark.parametrize("mode", ["--compare", "--diff"])
def test_exit_status_is_0_on_the_saved_answers_and_1_on_a_dropped_triple(fingerprint, tmp_path, monkeypatch, mode):
    serve(fingerprint, monkeypatch, spectrum())
    assert fingerprint.main(["--families", "gallery", "--save", str(tmp_path)]) == 0
    assert fingerprint.main(["--families", "gallery", mode, str(tmp_path)]) == 0
    serve(fingerprint, monkeypatch, spectrum(drop=1))
    assert fingerprint.main(["--families", "gallery", mode, str(tmp_path)]) == 1


def test_a_float_drift_alone_fails_compare_but_not_diff(fingerprint, tmp_path, monkeypatch, capsys):
    serve(fingerprint, monkeypatch, spectrum())
    fingerprint.main(["--families", "gallery", "--save", str(tmp_path)])
    moved = Spectrum(tuple(dataclasses.replace(t, tau=t.tau + 1e-12) for t in spectrum().triples))
    serve(fingerprint, monkeypatch, moved)
    capsys.readouterr()
    assert fingerprint.main(["--families", "gallery", "--compare", str(tmp_path)]) == 1
    assert "0 structural change(s)" in capsys.readouterr().out
    assert fingerprint.main(["--families", "gallery", "--diff", str(tmp_path)]) == 0


@pytest.mark.parametrize("atol, code", [("1e-11", 0), ("2e-12", 0), ("1e-13", 1)])
def test_compare_accepts_a_float_drift_up_to_atol(fingerprint, tmp_path, monkeypatch, capsys, atol, code):
    serve(fingerprint, monkeypatch, spectrum())
    fingerprint.main(["--families", "gallery", "--save", str(tmp_path)])
    moved = Spectrum(tuple(dataclasses.replace(t, tau=t.tau + 1e-12) for t in spectrum().triples))
    serve(fingerprint, monkeypatch, moved)
    capsys.readouterr()
    assert fingerprint.main(["--families", "gallery", "--compare", str(tmp_path), "--atol", atol]) == code
    assert "0 structural change(s)" in capsys.readouterr().out


def test_atol_does_not_forgive_a_structural_change(fingerprint, tmp_path, monkeypatch):
    serve(fingerprint, monkeypatch, spectrum())
    fingerprint.main(["--families", "gallery", "--save", str(tmp_path)])
    serve(fingerprint, monkeypatch, spectrum(drop=1))
    assert fingerprint.main(["--families", "gallery", "--compare", str(tmp_path), "--atol", "1e300"]) == 1


@pytest.mark.parametrize("atol, code", [("0", 1), ("1e-12", 0)])
def test_a_flipped_zero_sign_is_a_difference_with_its_path(fingerprint, tmp_path, monkeypatch, capsys, atol, code):
    # -0.0 == 0.0, but the hash reads the sign bit, so --compare must see it too.
    serve(fingerprint, monkeypatch, spectrum())
    fingerprint.main(["--families", "gallery", "--save", str(tmp_path)])
    flipped = spectrum().triples
    flipped = (dataclasses.replace(flipped[0], residuals=(0.0, -0.0, 0.0)), *flipped[1:])
    serve(fingerprint, monkeypatch, Spectrum(flipped))
    capsys.readouterr()
    assert fingerprint.main(["--families", "gallery", "--compare", str(tmp_path), "--atol", atol]) == code
    out = capsys.readouterr().out
    assert "0 structural change(s), max |float diff| 4.94e-324 at 1/t[1][1][1].residuals[1]" in out
