"""End-to-end command-line tests via subprocess, including exit codes."""

import dataclasses
import importlib
import io
import json
import os
import pathlib
import resource
import runpy
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilop import (
    DeflationFailure,
    FailureReason,
    SchmidtRepresentation,
    SchmidtStatus,
    SchmidtTerm,
    Tensor3,
    cli,
    gallery,
    spectra,
    tensor_to_json_dict,
    verify_representation,
)
from bilop.tensor_core import _probe
from conftest import legendre_kernel, sub_gate_tail, tied_cubic

S2 = np.sqrt(2.0)

#: The children's environment: block-buffered stdio, as a user's shell runs bilop, so output left unflushed is lost;
#: and a RuntimeWarning is an error there too, as in the in-process tests (pyproject.toml).
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONWARNINGS": "error::RuntimeWarning"}

#: A JSON integer beyond the float range: 1e400.
BEYOND_FLOAT = "1" + "0" * 400


def limit_address_space() -> None:
    """A child's preexec_fn: 1 GiB of address space, so an allocation past it fails at once, not by exhausting memory."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bilop", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=CHILD_ENV,
    )


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    """A 600 x 600 x 1 Gaussian tensor, its values to three decimals: a file of 2.6 MB."""
    path = tmp_path_factory.mktemp("wide") / "wide.json"
    values = np.random.default_rng(600).standard_normal(600 * 600).round(3)
    path.write_text(json.dumps(tensor_to_json_dict(Tensor3((600, 600, 1), values))))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Tensor and triples JSON files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for stem, T in [
        ("diag_pair", gallery.diagonal_pair()),
        ("overlap", gallery.overlapping_slices()),
        ("signed_diag", gallery.signed_diagonal((3.0, -2.0, 1.0))),
        ("triad", gallery.orthonormal_triad()),
    ]:
        p = root / f"{stem}.json"
        p.write_text(json.dumps(tensor_to_json_dict(T)))
        paths[stem] = str(p)

    skew = np.zeros((2, 2, 2))
    skew[0, 0, 1] = 1.0
    p = root / "skew.json"
    p.write_text(json.dumps(tensor_to_json_dict(Tensor3.from_array(skew))))
    paths["skew"] = str(p)

    triples = {
        "triples": [
            {
                "tau": float(S2),
                "x": [float(S2 / 2), 0.0, float(S2 / 2)],
                "y": [0.0, 1.0],
                "z": [0.0, 0.0, 0.0, 1.0],
            },
            {
                "tau": float(S2),
                "x": [1.0, 0.0, 0.0],
                "y": [0.0, 1.0],
                "z": [0.0, 0.0, 0.0, 1.0],
            },
        ]
    }
    p = root / "overlap_triples.json"
    p.write_text(json.dumps(triples))
    paths["overlap_triples"] = str(p)

    p = root / "bad_dims_triples.json"
    p.write_text(
        json.dumps(
            {"triples": [{"tau": 1.0, "x": [1.0, 0.0], "y": [0.0, 1.0], "z": [1.0]}]}
        )
    )
    paths["bad_dims_triples"] = str(p)

    p = root / "non_unit_triples.json"
    p.write_text(
        json.dumps(
            {
                "triples": [
                    {
                        "tau": 1.0,
                        "x": [1.0, 0.0, 1.0],
                        "y": [0.0, 1.0],
                        "z": [0.0, 0.0, 0.0, 1.0],
                    }
                ]
            }
        )
    )
    paths["non_unit_triples"] = str(p)

    # Entries near the float range, with a finite Hilbert-Schmidt norm; its rounding floor is 3.1e134.
    p = root / "near_range.json"
    p.write_text(json.dumps(tensor_to_json_dict(Tensor3.from_array(np.full((2, 2, 2), 1e150)))))
    paths["near_range"] = str(p)

    # The diagonal pair scaled far below 1e-6, where fixed-point human numbers would read 0.
    p = root / "tiny.json"
    p.write_text(json.dumps(tensor_to_json_dict(Tensor3.from_array(1e-20 * gallery.diagonal_pair().array))))
    paths["tiny"] = str(p)

    # Finite entries, but a Hilbert-Schmidt norm beyond the float range.
    p = root / "huge.json"
    p.write_text(json.dumps({"dims": [2, 2, 2], "values": [1e300] * 8}))
    paths["huge"] = str(p)

    p = root / "not_json.json"
    p.write_text("{this is not json")
    paths["not_json"] = str(p)
    paths["missing"] = str(root / "no_such_file.json")
    return paths


class TestNorm:
    def test_human_output(self, files):
        proc = run_cli("norm", files["diag_pair"], "--starts", "32")
        assert proc.returncode == 0
        assert "bilinear_norm: 3.000000000000" in proc.stdout
        assert "hs_norm: 3.605551275464" in proc.stdout

    def test_json_report(self, files):
        proc = run_cli("norm", files["diag_pair"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "norm"
        assert report["status"] == "Ok"
        assert report["input"]["dims"] == [3, 2, 4]
        assert report["config"]["starts"] == 32
        assert report["result"]["bilinear_norm"] == pytest.approx(3.0, abs=1e-9)
        assert report["result"]["attained"]["tau"] == pytest.approx(3.0, abs=1e-9)

    def test_no_verified_triple_exits_two(self, files):
        proc = run_cli("norm", files["diag_pair"], "--max-iter", "1", "--json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "max_iter=1" in proc.stderr

    @pytest.mark.numpy1
    def test_start_counts_past_the_bound_exit_two(self, files):
        # 2**40 starts would need a 72 TiB table of normals: the search's budget refuses them before it is allocated.
        proc = run_cli("norm", files["diag_pair"], "--starts", str(2**40), "--json")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: a search from 1099511627782 starts of width 9 would take about 1.26e+06 GiB, more than the 2 GiB "
            "a search may use\n"
        )

    @pytest.mark.numpy1
    def test_a_search_past_the_byte_budget_exits_two(self, files):
        # 2**31 starts pass the stream's index bound, and on a 3^3 tensor their search would take about 2.6 TB by
        # estimate: refused. The child may map 1 GiB, so a search that went ahead would fail at once, not exhaust memory.
        proc = subprocess.run(
            [sys.executable, "-m", "bilop", "norm", files["signed_diag"], "--starts", str(2**31), "--json"],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV, preexec_fn=limit_address_space,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: a search from 2147483657 starts of width 9 would take about 2.4e+03 GiB, more than the 2 GiB "
            "a search may use\n"
        )

    @pytest.mark.parametrize(
        "argv, rows, gib",
        [(["norm", "--starts", "1"], 360001, "29.3"), (["spectrum"], 398400, "32.4"), (["schmidt"], 398400, "32.4")],
        ids=["norm", "spectrum", "schmidt"],
    )
    @pytest.mark.numpy1
    def test_a_wide_tensor_is_refused_before_its_basis_pairs_are_built(self, wide_file, argv, rows, gib):
        # 600 x 600 x 1 makes 360000 basis-pair starts of width 1201 whatever --starts says, from a file of 2.6 MB:
        # 1.6 GiB for the pair block alone. schmidt's SVD reading fails at its one term, and greedy's search is refused.
        command, *flags = argv
        proc = subprocess.run(
            [sys.executable, "-m", "bilop", command, wide_file, *flags],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV, preexec_fn=limit_address_space,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: a search from {rows} starts of width 1201 would take about {gib} GiB, more than the 2 GiB a search "
            "may use\n"
        )


class TestSpectrum:
    def test_reports_ordered_flags(self, files):
        proc = run_cli("spectrum", files["diag_pair"], "--starts", "64", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        triples = report["result"]["triples"]
        assert report["result"]["count"] == len(triples) == 6
        assert report["result"]["complete"] is False
        assert triples[0]["tau"] == pytest.approx(3.0, abs=1e-9)
        assert triples[0]["ordered"] is True
        assert triples[1]["ordered"] is True
        assert all(t["ordered"] is False for t in triples[2:])

    def test_near_the_float_range_nothing_is_written_to_stderr(self, files):
        proc = run_cli("spectrum", files["near_range"], "--tol", "1e140", "--json")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["result"]["count"] >= 1


    def test_the_human_header_reads_the_spectrums_complete_field(self, files, monkeypatch, capsys):
        listed = spectra.enumerate_triples(gallery.diagonal_pair())
        monkeypatch.setattr(cli, "enumerate_triples", lambda T, cfg: dataclasses.replace(listed, complete=True))
        assert cli.main(["spectrum", files["diag_pair"]]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"spectrum: {len(listed.triples)} triple(s), complete: yes"


class TestSchmidt:
    def test_complete_decomposition_exits_zero(self, files):
        proc = run_cli("schmidt", files["diag_pair"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["status"] == "Ok"
        assert report["result"]["status"] == "Complete"
        assert report["result"]["sum_tau_sq"] == pytest.approx(13.0, abs=1e-9)
        assert report["result"]["verification"]["reconstruction_ok"] is True

    @pytest.mark.parametrize("stem", ["diag_pair", "triad"])
    def test_a_complete_result_is_verified_once(self, files, stem, monkeypatch, capsys):
        # diag_pair takes the SVD path, whose last gate is the check the report
        # shows; triad the greedy path, which the CLI verifies itself.
        from bilop import schmidt

        seen = []
        real = schmidt.verify_representation

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(schmidt, "verify_representation", counting)
        monkeypatch.setattr(cli, "verify_representation", counting)
        assert cli.main(["schmidt", files[stem], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(seen) == 1
        assert report["result"]["verification"] == dataclasses.asdict(real(*seen[0]))

    def test_a_tied_top_band_is_deflated_in_descending_order(self, tmp_path, capsys):
        path = tmp_path / "tied.json"
        path.write_text(json.dumps(tensor_to_json_dict(gallery.signed_diagonal((3.0, 3.0 - 2e-6, 1.0)))))
        assert cli.main(["schmidt", str(path), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert [term["tau"] for term in result["terms"]] == [3.0, 3.0 - 2e-6, 1.0]
        assert result["verification"]["monotone"] is True

    @pytest.mark.parametrize("tol", ["0.5", "1"])
    def test_a_loose_tolerance_keeps_every_term_the_residual_needs(self, files, tol):
        proc = run_cli("schmidt", files["diag_pair"], "--tol", tol, "--json")
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert [t["tau"] for t in result["terms"]] == pytest.approx([3.0, 2.0], abs=1e-12)
        assert result["reconstruction_residual"] <= float(tol)
        assert result["verification"]["reconstruction_ok"] is True

    def test_failed_decomposition_exits_three(self, files):
        proc = run_cli("schmidt", files["overlap"], "--starts", "32", "--json")
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["status"] == "Failed"
        assert report["result"]["terms"] == []
        failure = report["result"]["deflation"]["failure"]
        assert failure["step"] == 1
        assert failure["reason"] == "NotOrdered"

    def test_no_verified_triple_exits_three(self, files):
        proc = run_cli("schmidt", files["overlap"], "--max-iter", "1", "--json")
        assert proc.returncode == 3
        report = json.loads(proc.stdout)
        assert report["result"]["deflation"]["steps"] == []
        failure = report["result"]["deflation"]["failure"]
        assert (failure["step"], failure["reason"]) == (1, "NoTripleFound")

    def test_a_remainder_below_the_gate_names_the_starts_it_rejected(self, tensor_file, capsys):
        assert cli.main(["schmidt", str(tensor_file(sub_gate_tail())), "--json"]) == 3
        failure = json.loads(capsys.readouterr().out)["result"]["deflation"]["failure"]
        assert (failure["step"], failure["reason"]) == (2, "NoTripleFound")
        assert "272 start(s) converged, but none has tau above it and residuals within it" in failure["diagnostics"]

    @pytest.mark.parametrize("command", ["schmidt", "schur"])
    def test_terms_failing_their_check_exit_three(self, command, tensor_file, capsys):
        # Every greedy step on the 14^3 Legendre kernel passes, but its terms miss orthonormality: not Complete.
        path = str(tensor_file(legendre_kernel(14)))
        assert cli.main([command, path]) == 3
        out, err = capsys.readouterr()
        if command == "schmidt":
            assert "failed at step 14 (NotVerified): max Gram deviation 8.027e-06 > 1e-08" in out and err == ""
        else:
            assert err == "error: Schmidt decomposition failed at step 14 (NotVerified); no Schur form\n"

    def test_failure_is_explained_in_human_mode(self, files):
        proc = run_cli("schmidt", files["overlap"], "--starts", "32")
        assert proc.returncode == 3
        assert "NotOrdered" in proc.stdout

    def test_report_round_trips_into_a_verified_representation(self, files):
        proc = run_cli("schmidt", files["signed_diag"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        terms = tuple(
            SchmidtTerm(
                tau=t["tau"],
                x=np.array(t["x"]),
                y=np.array(t["y"]),
                z=np.array(t["z"]),
            )
            for t in report["result"]["terms"]
        )
        rebuilt = SchmidtRepresentation(
            dims=tuple(report["input"]["dims"]),
            terms=terms,
            reconstruction_residual=report["result"]["reconstruction_residual"],
            status=SchmidtStatus.COMPLETE,
        )
        T = gallery.signed_diagonal((3.0, -2.0, 1.0))
        assert verify_representation(T, rebuilt, 1e-9).all_ok


class TestSchur:
    def test_signed_weights_in_report(self, files):
        proc = run_cli("schur", files["signed_diag"], "--starts", "32", "--json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        lams = [t["lambda"] for t in report["result"]["terms"]]
        assert lams == pytest.approx([3.0, -2.0, 1.0], abs=1e-10)
        assert report["result"]["verification"]["reconstruction_ok"] is True

    def test_a_loose_tolerance_near_the_float_range_converts(self, files):
        proc = run_cli("schur", files["near_range"], "--tol", "1e140", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        result = json.loads(proc.stdout)["result"]
        assert [t["lambda"] for t in result["terms"]] == pytest.approx([2.0 * S2 * 1e150])
        assert result["verification"]["reconstruction_ok"] is True

    @pytest.mark.parametrize("args", [["signed_diag"], ["signed_diag", "--json"], ["near_range", "--tol", "1e140", "--json"]])
    def test_the_conversion_verifies_the_schmidt_terms_again(self, files, args, monkeypatch):
        from bilop import schmidt, schur

        seen = []
        real = schmidt.verify_representation

        def counting(*args):
            seen.append(args)
            return real(*args)

        for module in (schmidt, schur):
            monkeypatch.setattr(module, "verify_representation", counting)
        assert cli.main(["schur", files[args[0]], *args[1:]]) == 0
        # One verification in schmidt_decompose, one in schur_from_schmidt.
        assert len(seen) == 2

    def test_a_tied_cubic_exits_zero(self, tmp_path):
        # Eight equal weights at 16^3, whose Schmidt terms must come out in descending order to convert.
        p = tmp_path / "cubic.json"
        p.write_text(json.dumps(tensor_to_json_dict(tied_cubic())))
        proc = run_cli("schur", str(p), "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [abs(t["lambda"]) for t in json.loads(proc.stdout)["result"]["terms"]] == pytest.approx([1.0] * 8, abs=1e-14)

    def test_rectangular_input_exits_four(self, files):
        proc = run_cli("schur", files["diag_pair"])
        assert proc.returncode == 4
        assert "equal dims" in proc.stderr

    def test_non_self_adjoint_input_exits_four(self, files):
        proc = run_cli("schur", files["skew"])
        assert proc.returncode == 4
        assert "self-adjoint" in proc.stderr


class TestVerify:
    def test_reports_verified_and_impostor_triples(self, files):
        proc = run_cli(
            "verify", files["overlap"], files["overlap_triples"], "--json"
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        good, bad = report["result"]["triples"]
        assert good["verified"] is True
        assert good["ordered"] is False
        assert good["stationarity"] <= 1e-6
        assert bad["verified"] is False
        assert bad["ordered"] is None
        assert max(bad["residuals"]) > 0.1

    def test_dimension_mismatch_exits_two(self, files):
        proc = run_cli("verify", files["overlap"], files["bad_dims_triples"])
        assert proc.returncode == 2
        assert proc.stderr == f"error: {files['bad_dims_triples']}: triple 1: x has dimension 2, expected 3\n"

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"tau": 1.0, "x": [], "y": [1.0, 0.0], "z": [1.0, 0.0, 0.0, 0.0]}, "x must be nonempty"),
            ({"tau": 1.0, "x": [1.0, 0.0, 0.0], "y": [1.0, 0.0], "z": [1.0, 0.0, 0.0]}, "z has dimension 3, expected 4"),
        ],
        ids=["empty-x", "short-z"],
    )
    def test_a_vector_of_the_wrong_size_exits_two_and_is_named(self, files, tmp_path, capsys, second, message):
        path = tmp_path / "triples.json"
        first = {"tau": 1.0, "x": [1.0, 0.0, 0.0], "y": [1.0, 0.0], "z": [1.0, 0.0, 0.0, 0.0]}
        path.write_text(json.dumps({"triples": [first, second]}))
        assert cli.main(["verify", files["overlap"], str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: triple 2: {message}\n")

    def test_the_files_shape_is_checked_before_any_vector(self, files, tmp_path, capsys):
        # verify_triple checks the vectors against the tensor, after the whole file has been read.
        path = tmp_path / "triples.json"
        short = {"tau": 1.0, "x": [1.0, 0.0], "y": [1.0, 0.0], "z": [1.0, 0.0, 0.0, 0.0]}
        path.write_text(json.dumps({"triples": [short, {"tau": 1.0, "x": [1.0, 0.0, 0.0], "y": [1.0, 0.0]}]}))
        assert cli.main(["verify", files["overlap"], str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: triple 2 is missing ['z']\n")

    def test_non_unit_vectors_exit_two(self, files):
        proc = run_cli("verify", files["overlap"], files["non_unit_triples"])
        assert proc.returncode == 2

    @staticmethod
    def triples_file(path, triples) -> str:
        items = [{"tau": t.tau, "x": list(t.x), "y": list(t.y), "z": list(t.z)} for t in triples]
        path.write_text(json.dumps({"triples": items}))
        return str(path)

    def test_several_triples_are_classified_as_is_ordered_classifies_each(self, files, tmp_path):
        # The triad's spectrum with an impostor in second place: each verified triple, normalised as verify reads
        # it, is classified in its own pass, and each entry carries the bits is_ordered gives it.
        T = gallery.orthonormal_triad()
        listed = list(spectra.enumerate_triples(T).triples)
        impostor = dataclasses.replace(listed[0], tau=listed[0].tau + 0.5)
        path = self.triples_file(tmp_path / "triples.json", [listed[0], impostor, *listed[1:]])
        proc = run_cli("verify", files["triad"], path, "--json")
        assert proc.returncode == 0, proc.stderr
        entries = json.loads(proc.stdout)["result"]["triples"]
        assert [e["verified"] for e in entries] == [True, False] + [True] * (len(listed) - 1)
        assert entries[1]["ordered"] is entries[1]["slice_residuals"] is entries[1]["stationarity"] is None
        for entry, triple in zip(entries[:1] + entries[2:], listed):
            unit = dataclasses.replace(triple, **{f: getattr(triple, f) / np.linalg.norm(getattr(triple, f)) for f in "xyz"})
            check = spectra.is_ordered(T, spectra.canonicalize(unit), 1e-9)
            assert entry["ordered"] is check.ordered
            assert entry["slice_residuals"] == list(check.slice_residuals)
        assert any(e["ordered"] for e in entries) and any(e["ordered"] is False for e in entries)

    @pytest.mark.parametrize(
        "T, tau, x, y, z",
        [
            (Tensor3.from_array(np.zeros((2, 2, 2))), 1e-12, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]),
            (gallery.diagonal_pair(), 5e-10, [0.0, 0.0, 1.0], [1.0, 0.0], [0.0, 0.0, 1.0, 0.0]),
        ],
        ids=["zero-tensor", "null-direction"],
    )
    def test_a_tau_at_most_tol_is_not_verified(self, T, tau, x, y, z, tensor_file, tmp_path, capsys):
        # Every residual equals tau, within --tol, but the search's gate wants tau above it too.
        triple = spectra.SingularTriple(tau, np.array(x), np.array(y), np.array(z), (0.0, 0.0, 0.0))
        argv = ["verify", str(tensor_file(T)), self.triples_file(tmp_path / "triples.json", [triple])]
        assert cli.main(argv) == 0
        line = f"  [1] tau = {cli._num(tau)}  verified = no  max residual = {tau:.3e}\n"
        assert capsys.readouterr().out.endswith(line)
        assert cli.main([*argv, "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["result"]["triples"]
        assert (entry["verified"], entry["residuals"], entry["ordered"]) == (False, [tau] * 3, None)

    def test_a_non_unit_triple_among_several_exits_two_and_is_named(self, files, tmp_path):
        T = gallery.orthonormal_triad()
        listed = list(spectra.enumerate_triples(T).triples)
        long = dataclasses.replace(listed[1], x=2.0 * listed[1].x)
        path = self.triples_file(tmp_path / "triples.json", [listed[0], listed[2], long])
        proc = run_cli("verify", files["triad"], path)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "triple 3: x is not a unit vector" in proc.stderr


#: JSON numbers a file may hold: plain ones, and NaN, infinities, bools, 400-digit integers and extremes.
NUMBERS = st.one_of(
    st.floats(-3.0, 3.0),
    st.integers(-3, 3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), True, 10**400, -(10**400), 1e300, 5e-324]),
)
#: Values of the wrong kind for any key.
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), NUMBERS, st.lists(NUMBERS, max_size=4),
    st.dictionaries(st.text(max_size=2), NUMBERS, max_size=2),
)


def spoiled(draw, obj: dict, keys) -> dict:
    """obj, sometimes with one key dropped or its value swapped for junk."""
    how, key = draw(st.sampled_from(["keep", "keep", "keep", "drop", "junk"])), draw(st.sampled_from(keys))
    if how == "drop":
        return {k: v for k, v in obj.items() if k != key}
    return obj | {key: draw(JUNK)} if how == "junk" else obj


@st.composite
def json_inputs(draw) -> tuple[object, object]:
    """A tensor file's and a triples file's JSON: small valid tensors and unit triples of their dims, spoiled
    anywhere from one entry to the whole file."""
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    size = int(np.prod(dims))
    fits = st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)
    values = draw(st.one_of(fits, fits, fits, st.lists(NUMBERS, max_size=9)))
    tensor = spoiled(draw, {"name": "fuzz", "dims": dims, "values": values}, ["dims", "values", "name"])

    def vector(n):
        unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(
            lambda v: (np.array(v) / np.linalg.norm(v)).tolist() if np.linalg.norm(v) > 0.1 else [1.0] + [0.0] * (n - 1)
        )
        return st.one_of(unit, unit, st.lists(NUMBERS, max_size=4), JUNK)

    def triple():
        entries = {"tau": draw(st.one_of(st.floats(0.0, 3.0), JUNK))} | {v: draw(vector(n)) for v, n in zip("xyz", dims)}
        return spoiled(draw, entries, ["tau", *"xyz"])

    triples = [triple() for _ in range(draw(st.integers(0, 2)))]
    whole = draw(st.sampled_from(["keep"] * 6 + ["junk", "list"]))
    if whole == "junk":
        return draw(st.one_of(JUNK, st.just(tensor))), draw(st.one_of(JUNK, st.just({"triples": draw(JUNK)})))
    return tensor, triples if whole == "list" else {"triples": triples}


@pytest.mark.numpy1
class TestInputHandling:
    @settings(max_examples=200, deadline=None)
    @given(json_inputs())
    def test_any_json_input_gives_a_documented_exit(self, fuzz_dir, case):
        # Every command, in both modes, reports, fails with its own code, or refuses the input with exit 2 and an
        # error line only; no exception escapes main.
        tensor, triples = fuzz_dir / "tensor.json", fuzz_dir / "triples.json"
        tensor.write_text(json.dumps(case[0]))
        triples.write_text(json.dumps(case[1]))
        for command in ["norm", "spectrum", "schmidt", "schur", "verify"]:
            extra = [str(triples)] if command == "verify" else []
            for mode in [[], ["--json"]]:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([command, str(tensor), *extra, "--starts", "4", *mode])
                assert code in (0, 2, 3, 4)
                if code == 2:
                    assert out.getvalue() == "" and err.getvalue().startswith("error: ")

    def test_malformed_json_exits_two(self, files):
        proc = run_cli("norm", files["not_json"])
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-budget", "one-byte-past"])
    def test_a_file_past_the_byte_budget_is_refused_before_it_is_read(self, tmp_path, over):
        # Sparse files of NUL bytes: the one at the budget is read and is not JSON; the one a byte past it is
        # refused once that byte is read. The child may map 1 GiB, so a read that went on past the budget would
        # not exhaust memory.
        path = tmp_path / "big.json"
        path.touch()
        os.truncate(path, cli._FILE_BUDGET + over)
        argv = [sys.executable, "-m", "bilop", "norm", str(path), "--json"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=CHILD_ENV, preexec_fn=limit_address_space)
        assert (proc.returncode, proc.stdout) == (2, "")
        if over:
            assert proc.stderr == f"error: {path} holds more than the 64 MiB an input file may hold\n"
        else:
            assert proc.stderr.startswith(f"error: {path} is not valid JSON: ")

    def test_a_triples_file_past_the_byte_budget_is_refused(self, files, tmp_path, capsys):
        path = tmp_path / "triples.json"
        path.touch()
        os.truncate(path, cli._FILE_BUDGET + 1)
        assert cli.main(["verify", files["diag_pair"], str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path} holds more than the 64 MiB an input file may hold\n")

    def test_a_small_file_is_read_without_allocating_the_budget(self, files):
        tracemalloc.start()
        try:
            cli._load_json_file(files["diag_pair"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"loading a small file peaked at {peak / 2**20:.2f} MiB"

    def test_an_endless_device_is_refused_once_past_the_budget(self):
        # /dev/zero has no size to stat: the read stops one byte past the budget, in a child that may map 1 GiB.
        argv = [sys.executable, "-m", "bilop", "norm", "/dev/zero"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=CHILD_ENV, preexec_fn=limit_address_space)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: /dev/zero holds more than the 64 MiB an input file may hold\n"

    def test_a_tensor_piped_to_dev_stdin_is_read(self, files):
        text = pathlib.Path(files["diag_pair"]).read_text()
        argv = [sys.executable, "-m", "bilop", "norm", "/dev/stdin", "--json"]
        proc = subprocess.run(argv, input=text, capture_output=True, text=True, timeout=120, env=CHILD_ENV)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli("norm", files["diag_pair"], "--json").stdout

    def test_json_nested_past_the_recursion_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["norm", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path} nests its JSON too deeply to read: ")

    def test_nan_tolerance_exits_two(self, files):
        proc = run_cli("spectrum", files["diag_pair"], "--dedup-tol", "nan")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "dedup_tol must be positive" in proc.stderr

    @pytest.mark.parametrize("command", ["norm", "spectrum", "schmidt", "schur", "verify"])
    def test_overflowing_tensor_exits_two(self, files, command):
        extra = [files["overlap_triples"]] if command == "verify" else []
        proc = run_cli(command, files["huge"], *extra)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "tensor values overflow" in proc.stderr

    def test_overflowing_tensor_is_refused_before_any_search(self, files, capsys):
        with _probe() as probe:
            assert cli.main(["norm", files["huge"]]) == 2
        assert capsys.readouterr().out == "" and "als" not in probe

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
    @pytest.mark.parametrize("command", ["norm", "spectrum", "schmidt", "schur", "verify"])
    def test_a_tensor_entry_beyond_the_float_range_exits_two(self, files, tmp_path, command, mode):
        path = tmp_path / "beyond.json"
        path.write_text('{"dims": [1, 1, 1], "values": [%s]}' % BEYOND_FLOAT)
        extra = [files["overlap_triples"]] if command == "verify" else []
        proc = run_cli(command, str(path), *extra, *mode)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f'error: {path}: "values" holds a number beyond the float range\n'

    def test_dims_that_are_not_a_list_exit_two_and_are_named(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text('{"dims": 5, "values": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]}')
        proc = run_cli("norm", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {path}: dims must be three positive integers, got 5\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["human", "json"])
    @pytest.mark.parametrize(
        "triple, message",
        [
            ('{"tau": %s, "x": [1], "y": [1], "z": [1]}' % BEYOND_FLOAT, "tau must be a finite number"),
            ('{"tau": NaN, "x": [1], "y": [1], "z": [1]}', "tau must be a finite number"),
            ('{"tau": Infinity, "x": [1], "y": [1], "z": [1]}', "tau must be a finite number"),
            ('{"tau": -Infinity, "x": [1], "y": [1], "z": [1]}', "tau must be a finite number"),
            ('{"tau": 2, "x": [%s], "y": [1], "z": [1]}' % BEYOND_FLOAT, "x holds a number beyond the float range"),
            ('{"tau": 2, "x": [NaN], "y": [1], "z": [1]}', "x contains non-finite entries"),
        ],
        ids=["tau-beyond", "tau-nan", "tau-inf", "tau-minus-inf", "x-beyond", "x-nan"],
    )
    def test_a_triple_number_that_is_not_a_finite_float_exits_two_and_is_named(self, tmp_path, triple, message, mode):
        # Python's json reads NaN, Infinity and integers of any size; the second triple carries the bad number.
        tensor, triples = tmp_path / "t.json", tmp_path / "triples.json"
        tensor.write_text('{"dims": [1, 1, 1], "values": [2.0]}')
        triples.write_text('{"triples": [{"tau": 2, "x": [1], "y": [1], "z": [1]}, %s]}' % triple)
        proc = run_cli("verify", str(tensor), str(triples), *mode)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {triples}: triple 2: {message}\n"

    def test_missing_file_exits_two(self, files):
        proc = run_cli("norm", files["missing"])
        assert proc.returncode == 2
        assert "cannot read" in proc.stderr

    def test_repeated_runs_are_byte_identical(self, files):
        args = ("spectrum", files["diag_pair"], "--starts", "48", "--seed", "7", "--json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("command", ["spectrum", "schmidt"])
    def test_reports_are_byte_identical_across_blas_thread_counts(self, files, command):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "bilop", command, files["triad"], "--json"],
                capture_output=True,
                text=True,
                timeout=120,
                env=dict(CHILD_ENV, OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


DIAG_PAIR = "tensor: diagonal-pair  dims: 3x2x4  hs_norm: 3.605551275464\n"
DIAG_PAIR_TERMS = """\
  [1] tau = 3.000000000000
      x = [0.000000, 1.000000, 0.000000]
      y = [0.000000, 1.000000]
      z = [0.000000, 1.000000, 0.000000, 0.000000]
  [2] tau = 2.000000000000
      x = [1.000000, 0.000000, 0.000000]
      y = [1.000000, 0.000000]
      z = [1.000000, 0.000000, 0.000000, 0.000000]
"""
OVERLAP = "tensor: overlapping-slices  dims: 3x2x4  hs_norm: 2.449489742783\n"

#: (argv with fixture keys for files, exit code, stdout, stderr with {key} for fixture paths)
HUMAN_CASES = {
    "norm": (
        ["norm", "diag_pair"],
        0,
        DIAG_PAIR
        + "bilinear_norm: 3.000000000000\n"
        + "hs_norm: 3.605551275464\n"
        + "attained at x = [0.000000, 1.000000, 0.000000], y = [0.000000, 1.000000]\n",
        "",
    ),
    "spectrum": (
        ["spectrum", "diag_pair"],
        0,
        DIAG_PAIR
        + """\
spectrum: 6 triple(s), complete: no
  [1] tau = 3.000000000000  ordered = yes
      x = [0.000000, 1.000000, 0.000000]
      y = [0.000000, 1.000000]
      z = [0.000000, 1.000000, 0.000000, 0.000000]
  [2] tau = 2.000000000000  ordered = yes
      x = [1.000000, 0.000000, 0.000000]
      y = [1.000000, 0.000000]
      z = [1.000000, 0.000000, 0.000000, 0.000000]
  [3] tau = 1.664100588676  ordered = no
      x = [0.832050, -0.554700, -0.000000]
      y = [0.832050, -0.554700]
      z = [0.832050, 0.554700, 0.000000, -0.000000]
  [4] tau = 1.664100588676  ordered = no
      x = [0.832050, -0.554700, 0.000000]
      y = [0.832050, 0.554700]
      z = [0.832050, -0.554700, 0.000000, -0.000000]
  [5] tau = 1.664100588676  ordered = no
      x = [0.832050, 0.554700, 0.000000]
      y = [0.832050, 0.554700]
      z = [0.832050, 0.554700, 0.000000, -0.000000]
  [6] tau = 1.664100588676  ordered = no
      x = [0.832050, 0.554700, -0.000000]
      y = [0.832050, -0.554700]
      z = [0.832050, -0.554700, -0.000000, -0.000000]
""",
        "",
    ),
    "schmidt": (
        ["schmidt", "diag_pair"],
        0,
        DIAG_PAIR
        + "schmidt: Complete, 2 term(s)\n"
        + DIAG_PAIR_TERMS
        + "reconstruction residual: 0.000e+00\n"
        + "sum of tau^2: 13.000000000000\n",
        "",
    ),
    "schmidt-failed": (
        ["schmidt", "overlap"],
        3,
        OVERLAP
        + "schmidt: Failed, 0 term(s)\n"
        + "failed at step 1 (NotOrdered): top singular value 1.84775906502 of the remainder is not an ordered "
        + "singular value (max slice residual 0.92388, 1 orbit(s) at the top)\n",
        "",
    ),
    "schur": (
        ["schur", "signed_diag"],
        0,
        """\
tensor: signed-diagonal-3  dims: 3x3x3  hs_norm: 3.741657386774
schur: 3 term(s)
  [1] lambda = +3.000000000000  x = [1.000000, 0.000000, 0.000000]
  [2] lambda = -2.000000000000  x = [0.000000, 1.000000, 0.000000]
  [3] lambda = +1.000000000000  x = [0.000000, 0.000000, 1.000000]
reconstruction residual: 0.000e+00
""",
        "",
    ),
    "schur-rectangular": (["schur", "diag_pair"], 4, "", "error: schur requires equal dims, got 3x2x4\n"),
    "schur-not-symmetric": (["schur", "triad"], 4, "", "error: operator is not symmetric at tolerance 1e-09\n"),
    "verify": (
        ["verify", "overlap", "overlap_triples"],
        0,
        OVERLAP
        + "verify: 2 triple(s)\n"
        + "  [1] tau = 1.414213562373  verified = yes  ordered = no  fd = 0.000e+00\n"
        + "  [2] tau = 1.414213562373  verified = no  max residual = 1.082e+00\n",
        "",
    ),
    "norm-tiny": (
        ["norm", "tiny", "--tol", "1e-30"],
        0,
        "tensor: (unnamed)  dims: 3x2x4  hs_norm: 3.605551275464e-20\n"
        + "bilinear_norm: 3.000000000000e-20\n"
        + "hs_norm: 3.605551275464e-20\n"
        + "attained at x = [0.000000, 1.000000, 0.000000], y = [0.000000, 1.000000]\n",
        "",
    ),
    "norm-near-range": (
        ["norm", "near_range", "--tol", "1e140"],
        0,
        "tensor: (unnamed)  dims: 2x2x2  hs_norm: 2.828427124746e+150\n"
        + "bilinear_norm: 2.828427124746e+150\n"
        + "hs_norm: 2.828427124746e+150\n"
        + "attained at x = [0.707107, 0.707107], y = [0.707107, 0.707107]\n",
        "",
    ),
    "schur-near-range": (
        ["schur", "near_range", "--tol", "1e140"],
        0,
        "tensor: (unnamed)  dims: 2x2x2  hs_norm: 2.828427124746e+150\n"
        + "schur: 1 term(s)\n"
        + "  [1] lambda = +2.828427124746e+150  x = [0.707107, 0.707107]\n"
        + "reconstruction residual: 5.140e+134\n",
        "",
    ),
    "malformed-json": (
        ["norm", "not_json"],
        2,
        "",
        "error: {not_json} is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n",
    ),
}


class TestSearchFlags:
    """The search flags set their SearchConfig fields only when given; the fields' defaults are the CLI's."""

    @pytest.mark.parametrize("command", ["norm", "spectrum", "schmidt", "schur", "verify"])
    def test_a_flagless_report_renders_the_default_config(self, files, command, capsys):
        argv = [files["overlap"], files["overlap_triples"]] if command == "verify" else [files["signed_diag"]]
        cli.main([command, *argv, "--json"])
        report = json.loads(capsys.readouterr().out)
        default = spectra.SearchConfig()
        want = dataclasses.replace(default, starts=default.resolved_starts(tuple(report["input"]["dims"])))
        assert report["config"] == json.loads(cli._render_json(want)) and report["config"]["starts"] > 0

    def test_each_flag_sets_its_field(self, files, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "operator_norm", lambda T, cfg: seen.append(cfg) or (1.0, None))
        flags = ["--starts", "7", "--tol", "1e-8", "--dedup-tol", "1e-5", "--max-iter", "50", "--seed", "3"]
        for argv in (flags, flags[2:6], []):
            assert cli.main(["norm", files["diag_pair"], *argv]) == 0
        assert seen == [
            spectra.SearchConfig(starts=7, residual_tol=1e-8, dedup_tol=1e-5, max_iter=50, seed=3),
            spectra.SearchConfig(residual_tol=1e-8, dedup_tol=1e-5),
            spectra.SearchConfig(),
        ]

    def test_the_help_reads_the_field_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["norm", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        default = spectra.SearchConfig()
        for flag, shown in [("--tol", f"{default.residual_tol:g}"), ("--dedup-tol", f"{default.dedup_tol:g}"),
                            ("--max-iter", default.max_iter), ("--seed", default.seed)]:
            assert f"{flag} " in text and f"(default {shown})" in text


class TestHumanOutput:
    """The whole human-mode output of each command: stdout, stderr and exit code."""

    @pytest.mark.parametrize("case", list(HUMAN_CASES))
    def test_full_output(self, files, case):
        argv, code, out, err = HUMAN_CASES[case]
        proc = run_cli(*(files.get(a, a) for a in argv))
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err.format(**files))


@pytest.mark.parametrize(
    "value, sign, text",
    [
        (0.0, "", "0.000000000000"),
        (-0.0, "", "-0.000000000000"),
        (1e-6, "", "0.000001000000"),
        (9.99e-7, "", "9.990000000000e-07"),
        (-3e-20, "", "-3.000000000000e-20"),
        (999999999999999.9, "", "999999999999999.875000000000"),
        (1e15, "", "1.000000000000e+15"),
        (2.0, "+", "+2.000000000000"),
        (-2e150, "+", "-2.000000000000e+150"),
    ],
)
def test_human_numbers_switch_to_scientific_outside_fixed_point_range(value, sign, text):
    assert cli._num(value, sign) == text


#: Values a --json report may hold, each with its rendering as written before the renderer ran json's own loop.
RENDER_CASES = {
    "negative zero": (-0.0, "-0"),
    "integral float": (3.0, "3"),
    "float32": (np.float32(0.1), "0.10000000149011612"),
    "smallest subnormal": (5e-324, "4.9406564584124654e-324"),
    "int beyond 64 bits": (2**70, "1180591620717411303424"),
    "int64": (np.int64(-7), "-7"),
    "float64": (np.float64(1 / 3), "0.33333333333333331"),
    "large float": (1e300, "1.0000000000000001e+300"),
    "string": ('\xe9\u2603"\\\n\ud800', r'"\u00e9\u2603\"\\\n\ud800"'),
    "containers": (
        {"a": [], "b": {}, "c": [[], {}, [[]]], "t": (1, 2.5), "arr": np.arange(6.0).reshape(2, 3)},
        '{\n  "a": [],\n  "b": {},\n  "c": [\n    [],\n    {},\n    [\n      []\n    ]\n  ],\n  "t": [\n    1,\n'
        '    2.5\n  ],\n  "arr": [\n    [\n      0,\n      1,\n      2\n    ],\n    [\n      3,\n      4,\n'
        "      5\n    ]\n  ]\n}",
    ),
    "SearchConfig": (
        spectra.SearchConfig(),
        '{\n  "starts": null,\n  "max_iter": 10000,\n  "iter_tol": 1e-14,\n  "residual_tol": 1.0000000000000001e-09,\n'
        '  "dedup_tol": 9.9999999999999995e-07,\n  "seed": 0\n}',
    ),
    "DeflationFailure": (
        DeflationFailure(2, FailureReason.NOT_ORDERED, "slice residual 0.5"),
        '{\n  "step": 2,\n  "reason": "NotOrdered",\n  "diagnostics": "slice residual 0.5"\n}',
    ),
    "tuple": (("a", None, [True]), '[\n  "a",\n  null,\n  [\n    true\n  ]\n]'),
    "None": (None, "null"),
    "True": (True, "true"),
    "False": (False, "false"),
    "zero": (0, "0"),
    "plain string": ("x", '"x"'),
}


@pytest.mark.numpy1
class TestRenderJson:
    """--json reports render byte for byte as they always have; the first test to fail if a Python release
    changes the stdlib loop that cli._render_json runs."""

    @pytest.mark.parametrize("case", list(RENDER_CASES))
    def test_renders_byte_for_byte(self, case):
        value, text = RENDER_CASES[case]
        assert cli._render_json(value) == text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), [1.0, {"x": -np.inf}], np.float32("nan")])
    def test_non_finite_values_are_refused(self, value):
        with pytest.raises(ValueError) as info:
            cli._render_json(value)
        assert str(info.value) == "non-finite value in report"

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError) as info:
            cli._render_json({"x": [object()]})
        assert str(info.value) == "cannot render object in a report"


def run_bytes(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "bilop", *args], timeout=120, env=CHILD_ENV, **kwargs)


class _Ended(Exception):
    """Raised in place of ending the process."""


class _BrokenPipe(io.StringIO):
    def flush(self):
        raise BrokenPipeError("stdout closed")


class TestProcessEntry:
    """`bilop` and `python -m bilop` run cli.run, which ends the process after flushing main's output."""

    @pytest.mark.parametrize("case", ["norm", "malformed-json", "schmidt-failed", "schur-rectangular"])
    def test_each_exit_code_gives_the_bytes_and_code_of_main(self, files, case, capsysbinary):
        argv = [files.get(a, a) for a in HUMAN_CASES[case][0]]
        code = cli.main(argv)
        captured = capsysbinary.readouterr()
        proc = run_bytes(*argv, capture_output=True)
        assert code == HUMAN_CASES[case][1]
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_a_report_larger_than_the_stdio_buffer_reaches_a_file_whole(self, files, tmp_path, capsysbinary):
        argv = ["spectrum", files["triad"], "--json"]
        assert cli.main(argv) == 0
        expected = capsysbinary.readouterr().out
        assert len(expected) > 8192
        out = tmp_path / "report.json"
        with open(out, "wb") as fh:
            proc = run_bytes(*argv, stdout=fh, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.read_bytes() == expected

    @staticmethod
    def entry(monkeypatch, argv, stdout):
        """Run cli.run on argv with stdout, os._exit patched; what it was given: (code, stdout so far) pairs."""
        ended = []

        def record(code):
            ended.append((code, stdout.getvalue()))
            raise _Ended

        monkeypatch.setattr(sys, "argv", ["bilop", *argv])
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(os, "_exit", record)
        return ended

    def test_the_process_ends_with_os_exit_and_the_code_of_main(self, files, monkeypatch):
        stdout = io.StringIO()
        ended = self.entry(monkeypatch, ["schmidt", files["overlap"]], stdout)
        with pytest.raises(_Ended):
            cli.run()
        assert ended == [(3, HUMAN_CASES["schmidt-failed"][2])]

    def test_a_failed_flush_takes_the_normal_exit(self, files, monkeypatch):
        ended = self.entry(monkeypatch, ["norm", files["diag_pair"]], _BrokenPipe())
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, ended) == (0, [])

    def test_an_exit_raised_in_main_takes_the_normal_exit(self, monkeypatch):
        ended = self.entry(monkeypatch, ["--help"], io.StringIO())
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert (exc.value.code, ended) == (0, [])

    def test_the_console_script_is_the_entry_python_m_runs(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
        module, _, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["bilop"].partition(":")
        assert getattr(importlib.import_module(module), name) is cli.run
        calls = []
        monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
        monkeypatch.delitem(sys.modules, "bilop.__main__", raising=False)
        runpy.run_module("bilop", run_name="__main__")
        assert calls == ["run"]

