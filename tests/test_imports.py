"""What `import bilop` and each CLI command load, and the package API over lazily loaded modules.

`bilop` imports its search core (tensor_core, spectra and its Newton corrector _newton) eagerly and loads
schmidt, schur and oracle on first use of one of their names; bilop.cli
does the same for the names only some commands run. The footprint tests
run in a fresh interpreter, where nothing else has loaded them yet.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import tokenize

import pytest

import bilop
from bilop import cli, gallery, tensor_to_json_dict

SRC = str(pathlib.Path(bilop.__file__).resolve().parents[1])
SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"

CORE = ["bilop", "bilop._newton", "bilop.spectra", "bilop.tensor_core"]

#: The bilop.cli attributes the benchmark's traced CLI run wraps (bench/spans.py, CLI_BOUNDARIES).
CLI_BOUNDARY_NAMES = [
    "tensor_from_json_dict",
    "hs_norm",
    "operator_norm",
    "enumerate_triples",
    "is_ordered",
    "verify_triple",
    "canonicalize",
    "schmidt_decompose",
    "schmidt_sum_sq",
    "verify_representation",
    "is_symmetric",
    "is_self_adjoint",
    "schur_from_schmidt",
    "verify_schur",
    "stationarity_fd_check",
]


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports bilop from this checkout, with RuntimeWarning an error; its stdout."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
        PYTHONWARNINGS="error::RuntimeWarning",
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "sorted(m for m in sys.modules if m == 'bilop' or m.startswith('bilop.'))"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Gallery tensors and a triples file as JSON: a non-cubic tensor, a symmetric self-adjoint cube and
    overlapping_slices, whose Schmidt decomposition deflates greedily (and fails at step 1)."""
    root = tmp_path_factory.mktemp("imports")
    paths = {}
    gallery_inputs = [
        ("diag_pair", gallery.diagonal_pair()),
        ("signed_diag", gallery.signed_diagonal((3.0, -2.0, 1.0))),
        ("overlap", gallery.overlapping_slices()),
    ]
    for stem, T in gallery_inputs:
        paths[stem] = root / f"{stem}.json"
        paths[stem].write_text(json.dumps(tensor_to_json_dict(T)))
    paths["triples"] = root / "triples.json"
    paths["triples"].write_text(json.dumps({"triples": [{"tau": 3.0, "x": [0, 1, 0], "y": [0, 1], "z": [0, 1, 0, 0]}]}))
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.numpy1
class TestFootprint:
    def test_import_bilop_loads_only_the_core(self):
        assert json.loads(run_fresh(f"import json, sys, bilop; print(json.dumps({LOADED}))")) == CORE

    @pytest.mark.parametrize(
        "argv, code, extra",
        [
            (["norm", "diag_pair"], 0, ["bilop._stream"]),
            (["spectrum", "diag_pair"], 0, ["bilop._stream"]),
            (["schur", "diag_pair"], 4, []),
            (["schmidt", "diag_pair"], 0, ["bilop.schmidt"]),
            (["schmidt", "overlap"], 3, ["bilop._stream", "bilop.schmidt"]),
            (["schur", "signed_diag"], 0, ["bilop.schmidt", "bilop.schur"]),
            (["verify", "diag_pair", "triples"], 0, ["bilop.oracle"]),
        ],
        ids=["norm", "spectrum", "schur-non-cubic", "schmidt", "schmidt-greedy", "schur-cube", "verify"],
    )
    def test_each_command_loads_its_modules(self, inputs, argv, code, extra):
        args = [argv[0], *(inputs[a] for a in argv[1:]), "--json"]
        out = run_fresh(
            f"""
            import contextlib, io, json, sys
            import bilop.cli
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = bilop.cli.main({args!r})
            print(json.dumps([code, {LOADED}]))
            """
        )
        assert json.loads(out) == [code, sorted(CORE + ["bilop.cli"] + extra)]

    def test_searches_do_not_load_numpy_random(self, inputs):
        # bilop draws its start normals itself (bilop._stream): numpy.random would load secrets, hashlib and
        # OpenSSL. numpy 1.x imports numpy.random with numpy, so what numpy itself loads is the baseline.
        commands = [["norm", inputs["overlap"]], ["spectrum", inputs["overlap"]], ["schmidt", inputs["overlap"]]]
        out = run_fresh(
            f"""
            import contextlib, io, json, sys
            import numpy
            baseline = set(sys.modules)
            import bilop.cli
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [bilop.cli.main(argv + ["--json"]) for argv in {commands!r}]
            watched = ("numpy.random", "secrets", "hashlib", "_hashlib")
            print(json.dumps([codes, "bilop._stream" in sys.modules, [m for m in watched if m in set(sys.modules) - baseline]]))
            """
        )
        assert json.loads(out) == [[0, 0, 3], True, []]


def test_every_module_stays_below_the_parser_token_step():
    # Compiling a module of 8192 parser tokens or more (tokenize, without comments and blank lines) grows
    # the parser's token storage, and every process compiles bilop when its bytecode is not cached.
    skipped = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
    counts = {}
    for path in sorted(pathlib.Path(SRC, "bilop").glob("*.py")):
        with path.open("rb") as f:
            counts[path.name] = sum(tok.type not in skipped for tok in tokenize.tokenize(f.readline))
    assert {name: n for name, n in counts.items() if n >= 8192} == {}


class TestPackageApi:
    def test_every_public_name_is_its_submodules_object(self):
        out = run_fresh(
            """
            import importlib, bilop
            owners = {}
            for mod in ("tensor_core", "spectra", "schmidt", "schur", "oracle"):
                module = importlib.import_module(f"bilop.{mod}")
                owners.update({name: module for name in module.__all__})
            names = [n for n in bilop.__all__ if n != "__version__"]
            assert set(names) <= set(owners), set(names) - set(owners)
            assert all(getattr(bilop, n) is getattr(owners[n], n) for n in names)
            print(bilop.__version__)
            """
        )
        assert out.strip() == "0.1.0"

    def test_dir_lists_every_public_name_without_loading(self):
        out = run_fresh(
            f"""
            import json, sys, bilop
            assert set(bilop.__all__) <= set(dir(bilop))
            assert {{"schmidt", "schur", "oracle"}} <= set(dir(bilop))
            print(json.dumps({LOADED}))
            """
        )
        assert json.loads(out) == CORE

    def test_star_import_binds_every_name(self):
        run_fresh(
            """
            import bilop
            ns = {}
            exec("from bilop import *", ns)
            missing = [n for n in bilop.__all__ if n not in ns]
            assert not missing, missing
            """
        )

    def test_submodules_resolve_after_a_bare_import(self):
        run_fresh(
            """
            import sys, bilop
            assert bilop.schur is sys.modules["bilop.schur"]
            assert bilop.oracle.__name__ == "bilop.oracle"
            """
        )

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            bilop.nope
        with pytest.raises(AttributeError, match="nope"):
            cli.nope
        assert not hasattr(bilop, "nope") and not hasattr(cli, "nope")

    def test_an_import_error_in_a_lazy_module_surfaces_as_itself(self):
        run_fresh(
            """
            import sys
            import bilop, bilop.cli
            sys.modules["bilop.oracle"] = None  # importing it now raises ModuleNotFoundError
            for module, name in ((bilop, "GridSpec"), (bilop.cli, "stationarity_fd_check")):
                try:
                    getattr(module, name)
                except ImportError as exc:
                    assert "bilop.oracle" in str(exc), exc
                else:
                    raise AssertionError(name)
            """
        )

    def test_a_resolved_name_is_cached(self):
        value = bilop.schmidt_decompose
        assert vars(bilop)["schmidt_decompose"] is value
        assert cli.verify_schur is vars(cli)["verify_schur"] is bilop.verify_schur


class TestCliBoundaries:
    """The benchmark's traced CLI run wraps these bilop.cli attributes, so each must exist and be what main() calls."""

    def test_every_boundary_is_a_callable_attribute(self):
        assert all(callable(getattr(cli, name, None)) for name in CLI_BOUNDARY_NAMES)

    @pytest.mark.skipif(not SPANS.exists(), reason="needs the benchmark's spans.py")
    def test_the_list_matches_the_benchmark(self):
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert [attr for _, attr, _ in spans.CLI_BOUNDARIES] == CLI_BOUNDARY_NAMES

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["schmidt", "diag_pair"], ["schmidt_decompose", "schmidt_sum_sq"]),
            (["schur", "signed_diag"], ["is_symmetric", "is_self_adjoint", "schmidt_decompose", "schur_from_schmidt", "verify_schur"]),
            (["verify", "diag_pair", "triples"], ["stationarity_fd_check"]),
        ],
        ids=["schmidt", "schur", "verify"],
    )
    def test_main_calls_the_module_attribute(self, inputs, argv, names, monkeypatch, capsys):
        calls = {name: 0 for name in names}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        assert cli.main([argv[0], *(inputs[a] for a in argv[1:]), "--json"]) == 0
        capsys.readouterr()
        assert calls == {name: 1 for name in names}
