import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from premodular import families
from premodular.cli import main
from premodular.condense import condense, double_data
from premodular.formats import (
    CategoryFormatError,
    category_from_doc,
    category_to_doc,
    condensed_to_doc,
    doc_sha256,
    load_category,
    plumbing_from_doc,
    plumbing_to_doc,
    save_category,
    save_plumbing,
)
from premodular.modular import PremodularityError, verify_premodular
from premodular.plumbing import plumbing


class TestCategoryFormat:
    def test_round_trip_preserves_data(self, su2_4):
        doc = category_to_doc(su2_4)
        back = category_from_doc(doc)
        assert back.fusion.same_ring(su2_4.fusion)
        assert np.abs(back.sprime - su2_4.sprime).max() < 1e-12
        assert all(a.turns == b.turns for a, b in zip(back.theta, su2_4.theta))

    def test_omitted_dims_and_sprime_are_computed(self):
        p = families.fibonacci()
        doc = category_to_doc(p)
        del doc["dims"]
        del doc["sprime"]
        back = category_from_doc(doc)
        assert np.abs(back.dims - p.dims).max() < 1e-9
        assert np.abs(back.sprime - p.sprime).max() < 1e-9

    def test_corrupted_sprime_rejected(self):
        p = families.semion()
        doc = category_to_doc(p)
        doc["sprime"][1][1] = [0.5, 0.5]
        with pytest.raises(PremodularityError, match="deviates"):
            category_from_doc(doc)

    def test_unknown_version_rejected(self):
        doc = category_to_doc(families.semion())
        doc["format"] = 99
        with pytest.raises(CategoryFormatError, match="version"):
            category_from_doc(doc)

    def test_missing_field_rejected(self):
        with pytest.raises(CategoryFormatError, match="missing"):
            category_from_doc({"format": 1, "labels": ["0"]})

    def test_hash_is_canonical(self, su2_4):
        a = category_to_doc(su2_4)
        b = json.loads(json.dumps(a))
        assert doc_sha256(a) == doc_sha256(b)

    def test_condensed_provenance_block(self, even_su2_4):
        c = condense(even_su2_4)
        doc = condensed_to_doc(c)
        prov = doc["provenance"]
        assert prov["group_order"] == 2
        assert prov["resolution_status"] == "unique"
        assert prov["orbit_map"]["2"] == ["2#1", "2#2"]
        assert len(prov["source_sha256"]) == 64
        back = category_from_doc(doc)
        assert verify_premodular(back).passed


class TestPlumbingFormat:
    def test_round_trip(self):
        g = plumbing([("u", 2), ("v", -3)], [("u", "v")])
        back = plumbing_from_doc(plumbing_to_doc(g))
        assert back.vertices == g.vertices and back.edges == g.edges

    def test_malformed_rejected(self):
        with pytest.raises(CategoryFormatError):
            plumbing_from_doc({"format": 1, "vertices": [{"id": "a"}]})


@pytest.fixture()
def workdir(tmp_path):
    save_category(tmp_path / "su2_4.json", families.su2(4))
    save_category(tmp_path / "even.json", families.su2(4).restrict([0, 2, 4]))
    save_plumbing(tmp_path / "empty.json", plumbing([]))
    save_plumbing(tmp_path / "hopf.json", plumbing([("u", 0), ("v", 0)], [("u", "v")]))
    save_plumbing(tmp_path / "lens5.json", plumbing([5]))
    return tmp_path


class TestCLI:
    def test_verify_builtin_su2_level_4(self, capsys):
        assert main(["verify", "--builtin", "su2", "--level", "4"]) == 0
        out = capsys.readouterr().out
        assert "modular: true" in out

    def test_verify_file(self, workdir):
        assert main(["verify", str(workdir / "su2_4.json")]) == 0

    def test_verify_broken_associativity_exits_1_with_witness(self, tmp_path, capsys):
        # sigma x sigma = 1 + 2 eps is genuinely non-associative
        doc = category_to_doc(families.ising())
        doc["N"] = [
            entry if entry[:3] != ["sigma", "sigma", "eps"] else ["sigma", "sigma", "eps", 2]
            for entry in doc["N"]
        ]
        doc["sprime"] = []
        doc["dims"] = {}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "axiom:associativity: FAIL witness=('eps', 'sigma', 'sigma', '1') residual=1\n" in out

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["theta"].update(sigma={"rational": [1, 0]}),
            lambda doc: doc["dims"].pop("sigma"),
            lambda doc: doc.update(labels=5),
            lambda doc: doc["theta"].update(sigma={"complex": "abc"}),
            lambda doc: doc.update(N=[e[:3] + [1.5] if e[3] == 1 else e for e in doc["N"]]),
            lambda doc: doc["N"].append(doc["N"][0]),
            lambda doc: doc["N"][0].__setitem__(0, 0.5),
            lambda doc: doc["N"][0].__setitem__(3, 10**30),
            lambda doc: doc["N"][0].__setitem__(3, math.inf),
            lambda doc: doc["theta"].update(sigma={"complex": [1]}),
        ],
        ids=["zero-denominator", "dims-missing-label", "labels-not-list",
             "complex-string", "fractional-multiplicity", "repeated-triple",
             "fractional-label-index", "multiplicity-beyond-int64", "infinite-multiplicity",
             "complex-one-number"],
    )
    def test_malformed_document_exits_2(self, tmp_path, capsys, mutate):
        doc = category_to_doc(families.ising())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["verify", "/no/such/file.json"]) == 2

    def test_bad_builtin_exits_2(self):
        assert main(["verify", "--builtin", "nonsense"]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    def test_center_output(self, workdir, capsys):
        assert main(["center", str(workdir / "even.json")]) == 0
        out = capsys.readouterr().out
        assert "{0, 4}" in out

    def test_condense_writes_verifiable_file(self, workdir, capsys):
        out_path = workdir / "condensed.json"
        assert main(["condense", str(workdir / "even.json"), "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["provenance"]["resolution_status"] == "unique"
        back = load_category(out_path)
        assert back.total_dim == pytest.approx(3.0, abs=1e-8)

    def test_condense_rejects_uncondensable(self, tmp_path, capsys):
        save_category(tmp_path / "bad.json", families.su2(2).restrict([0, 2]))
        assert main(["condense", str(tmp_path / "bad.json"), "-o", str(tmp_path / "o.json")]) == 1

    def test_unresolved_condense_output(self, tmp_path, capsys):
        even = families.su2(4).restrict([0, 2, 4])
        save_category(tmp_path / "zz.json", families.product(even, even))
        args = ["condense", str(tmp_path / "zz.json"), "-o", str(tmp_path / "o.json")]
        assert main(args + ["--output", "json"]) == 1

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["resolution"] == "unresolved"
        assert payload["best_residual"] is None
        assert payload["reason"].startswith("fixed orbits: 3")
        assert main(args) == 1
        assert "reason: fixed orbits: 3" in capsys.readouterr().out

    def test_double_pipeline(self, workdir, capsys):
        out_path = workdir / "double.json"
        assert main(["double", str(workdir / "su2_4.json"), "--delta", "0,2,4",
                     "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out_path)]) == 0
        back = load_category(out_path)
        assert back.total_dim == pytest.approx(36.0, abs=1e-7)

    def test_rt_prints_value(self, workdir, capsys):
        assert main(["rt", "--builtin", "su2:3", "-g", str(workdir / "empty.json")]) == 0
        out = capsys.readouterr().out.strip()
        value = float(out.split()[0])
        assert value == pytest.approx(1 / np.sqrt(families.su2(3).total_dim), abs=1e-9)
        assert "±" in out

    def test_json_output_round_trips(self, workdir, capsys):
        assert main(["rt", "--builtin", "su2:3", "-g", str(workdir / "hopf.json"),
                     "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"re", "im", "tolerance"} <= set(payload["value"])

    def test_compare_factorization(self, workdir):
        assert main(["compare", "--builtin", "su2:3",
                     "-g", str(workdir / "lens5.json"), "-g", str(workdir / "hopf.json")]) == 0

    def test_compare_double_mode(self, workdir):
        assert main(["compare", str(workdir / "su2_4.json"), "--mode", "double",
                     "--delta", "0,2,4", "-g", str(workdir / "hopf.json")]) == 0

    def test_compare_double_mode_builds_the_double_once(self, workdir, monkeypatch):
        import premodular.cli as cli

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return double_data(*args, **kwargs)

        monkeypatch.setattr(cli, "double_data", counting)
        assert main(["compare", str(workdir / "su2_4.json"), "--mode", "double",
                     "--delta", "0,2,4", "-g", str(workdir / "hopf.json"),
                     "-g", str(workdir / "lens5.json")]) == 0
        assert len(calls) == 1

    def test_double_rt_value(self, workdir, capsys):
        assert main(["double-rt", str(workdir / "su2_4.json"), "--delta", "0,2,4",
                     "-g", str(workdir / "empty.json")]) == 0
        value = float(capsys.readouterr().out.split()[0])
        assert value == pytest.approx(1 / 6, abs=1e-9)

    def test_kirby_test_command(self, capsys):
        assert main(["kirby-test", "--builtin", "ising", "--count", "8",
                     "--seed", "3", "--max-vertices", "4"]) == 0

    def test_term_cap_exit_code(self, workdir):
        assert main(["rt", "--builtin", "su2:8", "-g", str(workdir / "hopf.json"),
                     "--term-cap", "10"]) == 3

    @pytest.mark.parametrize("command", ["rt", "double-rt"])
    def test_term_cap_exit_code_beyond_float_range(self, tmp_path, capsys, command):
        # 450 vertices at rank 5: the coloring count overflows a float
        save_plumbing(tmp_path / "long.json", plumbing([(f"v{i}", -2) for i in range(450)],
                                                       [(f"v{i}", f"v{i + 1}") for i in range(449)]))
        delta = ["--delta", "0,2,4"] if command == "double-rt" else []
        assert main([command, "--builtin", "su2:4", *delta, "-g", str(tmp_path / "long.json")]) == 3
        assert "inf terms" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        assert main(["rt", "--builtin", "su2:3"]) == 2  # missing -g
        capsys.readouterr()

    def test_nonmodular_rt_exits_1(self, workdir):
        assert main(["rt", str(workdir / "even.json"), "-g", str(workdir / "hopf.json")]) == 1

    def test_invalid_tolerance_exits_2(self, workdir):
        assert main(["verify", "--builtin", "ising", "--tolerance", "-1"]) == 2


# -- mutation fuzz of category documents -----------------------------------------

_FUZZ_BASES = ("ising", "fibonacci", "pointed:3:2", "su2:2")
_DELETE = "<delete>"  # a mutation value that removes the node instead of replacing it
_FUZZ_KEYS = (
    "format", "labels", "unit", "dual", "N", "theta", "dims", "sprime",
    "rational", "complex", "1", "eps", "sigma", "tau", "0", "2",
)


@pytest.fixture(scope="module")
def fuzz_docs():
    return {name: json.dumps(category_to_doc(families.builtin(name))) for name in _FUZZ_BASES}


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10**30, 10**400, -(2**63), 2**63, 0.5, "", *_FUZZ_KEYS]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=3),
    max_leaves=8,
)
_mutations = st.lists(
    st.tuples(
        st.lists(st.integers(0, 30) | st.sampled_from(_FUZZ_KEYS), min_size=1, max_size=4)
        .map(tuple),
        _json_values | st.just(_DELETE),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(doc, path, value):
    """Replace (or delete) the node that ``path`` selects.

    A string step is a dict key, new or not; an integer step picks a child
    of a dict or list modulo its size, so most paths reach an existing node.
    """
    parent = key = None
    node = doc
    for step in path:
        if isinstance(node, dict) and isinstance(step, str):
            key = step
        elif isinstance(node, (dict, list)) and node and isinstance(step, int):
            key = sorted(node)[step % len(node)] if isinstance(node, dict) else step % len(node)
        else:
            break
        parent, node = node, node.get(key) if isinstance(node, dict) else node[key]
    if parent is None:
        return
    if value != _DELETE:
        parent[key] = value
    elif isinstance(parent, dict):
        parent.pop(key, None)
    else:
        del parent[key]


@given(base=st.sampled_from(_FUZZ_BASES), mutations=_mutations)
@example(base="ising", mutations=[(("N", 1), ["1", "1", "1", 1])])
@example(base="ising", mutations=[(("N", 0, 0), 0.5)])
@example(base="ising", mutations=[(("N", 0, 3), 10**30)])
@example(base="ising", mutations=[(("N", 0, 3), math.inf)])
@example(base="ising", mutations=[(("theta", "sigma"), {"complex": [1]})])
@example(base="ising", mutations=[(("dims", "sigma"), 10**400)])
@example(  # no dims, and sum_a N_a = [[0, 1], [2, 0]] has no Perron-Frobenius limit
    base="fibonacci",
    mutations=[(("dims",), {}), (("N",), [["1", "1", "tau", 1], ["1", "tau", "1", 2]])],
)
@settings(max_examples=150, deadline=None)
def test_mutated_document_keeps_the_exit_code_contract(fuzz_docs, fuzz_path, base, mutations):
    doc = json.loads(fuzz_docs[base])
    for path, value in mutations:
        _mutate(doc, path, value)
    fuzz_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", str(fuzz_path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
