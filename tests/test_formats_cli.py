import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import premodular
from premodular import families, modular
from premodular.cli import build_parser, main
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
from premodular.modular import PremodularityError, premodular_from_twists, verify_premodular
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


    def test_source_hash_is_pinned(self):
        # the canonical JSON of the source must keep its bytes across serialization changes
        c = condense(families.su2(8).restrict(range(0, 9, 2)))
        assert condensed_to_doc(c)["provenance"]["source_sha256"] == (
            "c95cfd23193d069819ae61c1a7aeb800004c5f666153a4f38b312a55bd54b8ae"
        )

    def test_integral_float_rational_parts_are_read_as_integers(self):
        p = families.ising()
        doc = category_to_doc(p)
        doc["theta"]["sigma"] = {"rational": [1.0, 16.0]}
        back = category_from_doc(json.loads(json.dumps(doc)))
        assert [t.turns for t in back.theta] == [t.turns for t in p.theta]
        assert back.sprime.tobytes() == p.sprime.tobytes()

    def test_exact_integers_beside_integral_floats_are_read_label_by_label(self):
        # read at once, the floats would make 2**60 a float beyond 2**53, which is refused
        p = families.ising()
        doc = category_to_doc(p)
        doc["theta"]["sigma"] = {"rational": [1.0, 16.0]}
        doc["theta"]["eps"] = {"rational": [2**60, 2**61]}
        back = category_from_doc(json.loads(json.dumps(doc)))
        assert [t.turns for t in back.theta] == [t.turns for t in p.theta]

    @pytest.mark.parametrize(
        "eps, sigma, message",  # eps comes before sigma among Ising's labels
        [
            ({"rational": [1, 0]}, {"rational": [True, 2]}, "theta of 'eps' has denominator 0"),
            ({"rational": [1, 2]}, {"rational": [1, 0]}, "theta of 'sigma' has denominator 0"),
            ({"complex": [math.nan, 0]}, {"rational": [1, 0]}, "theta of 'eps' must be finite"),
            ({"rational": ["1", 2]}, {"rational": [1, 0]}, r"theta of 'eps' must be numbers of shape \(2,\)"),
        ],
        ids=["denominator-first", "denominator-second", "complex-first", "string-first"],
    )
    def test_a_twist_error_names_the_first_label_at_fault(self, eps, sigma, message):
        doc = category_to_doc(families.ising())
        doc["theta"].update(sigma=sigma, eps=eps)
        with pytest.raises(CategoryFormatError, match=f"^{message}$"):
            category_from_doc(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize(
        "field, mutate",
        [
            ("theta of 'sigma'", lambda doc: doc["theta"]["sigma"]["rational"].__setitem__(0, True)),
            ("dims", lambda doc: doc["dims"].__setitem__("sigma", True)),
            ("sprime", lambda doc: doc["sprime"][1][1].__setitem__(0, False)),
        ],
        ids=["twist", "dims", "sprime"],
    )
    def test_boolean_among_numbers_rejected(self, field, mutate):
        # numpy would read [true, 16] as [1, 16]
        doc = category_to_doc(families.ising())
        mutate(doc)
        with pytest.raises(CategoryFormatError, match=f"{field} must be numbers, not booleans"):
            category_from_doc(json.loads(json.dumps(doc)))

    def test_non_finite_sprime_rejected_by_the_balancing_comparison(self):
        p = families.ising()
        sp = p.sprime.copy()
        sp[1, 1] = np.nan
        with pytest.raises(PremodularityError, match="deviates"):
            premodular_from_twists(p.fusion, p.theta, dims=p.dims, sprime=sp)


def category_doc_per_entry(p):
    """Oracle: the document built by one scalar read per tensor, dims and S' entry."""
    theta = {}
    for name, tw in zip(p.names, p.theta):
        if tw.turns is not None:
            theta[name] = {"rational": [tw.turns.numerator, tw.turns.denominator]}
        else:
            theta[name] = {"complex": [tw.approx.real, tw.approx.imag]}
    t = p.fusion.tensor
    return {
        "format": 1,
        "labels": list(p.names),
        "unit": p.names[p.unit],
        "dual": {p.names[i]: p.names[d] for i, d in enumerate(p.fusion.dual)},
        "N": [
            [p.names[a], p.names[b], p.names[c], int(t[a, b, c])]
            for a, b, c in zip(*np.nonzero(t))
        ],
        "theta": theta,
        "dims": {name: float(d) for name, d in zip(p.names, p.dims)},
        "sprime": [[[float(z.real), float(z.imag)] for z in row] for row in p.sprime],
    }


def _serialization_inputs():
    suite = families.builtin_suite()
    yield from suite
    yield from ((f"conj({name})", families.conjugate(p)) for name, p in suite)
    rng = np.random.default_rng(5)
    partners = [families.builtin(x) for x in ("fibonacci", "ising", "pointed:3:2", "conj(su2:8)")]
    for name, p in suite:
        for q in partners:
            if p.rank * q.rank <= 81:
                prod = families.product(p, q)
                yield f"prod({name},...)", prod.relabelled(rng.permutation(prod.rank))
    complex_twists = families.ising()
    yield "complex twists", premodular_from_twists(
        complex_twists.fusion, [t.value for t in complex_twists.theta], dims=complex_twists.dims
    )


def test_category_to_doc_matches_per_entry_oracle():
    for name, p in _serialization_inputs():
        assert json.dumps(category_to_doc(p)) == json.dumps(category_doc_per_entry(p)), name


def _round_trip_inputs():
    suite = families.builtin_suite()
    yield from suite
    yield from ((f"conj({name})", families.conjugate(p)) for name, p in suite)
    for k in range(2, 17, 2):
        yield f"even(su2:{k})", families.su2(k).restrict(range(0, k + 1, 2))
    for expr in ("prod(su2:4,conj(su2:4))", "prod(su2:6,conj(su2:6))", "prod(ising,pointed:5:2)",
                 "prod(fibonacci,conj(su2:5))"):
        yield expr, families.builtin(expr)
    for k in (4, 8, 12, 16):
        yield f"condense(even(su2:{k}))", condense(families.su2(k).restrict(range(0, k + 1, 2))).data
    yield "double(su2:4)", double_data(families.su2(4), [0, 2, 4]).data


def test_document_round_trip_is_bitwise():
    # signed zeros count: conjugate documents carry -0.0 imaginary parts
    def twists(p):
        return [(t.turns, t.approx.real.hex(), t.approx.imag.hex()) for t in p.theta]

    for name, p in _round_trip_inputs():
        back = category_from_doc(json.loads(json.dumps(category_to_doc(p))))
        assert back.dims.tobytes() == p.dims.tobytes(), name
        assert back.sprime.tobytes() == p.sprime.tobytes(), name
        assert twists(back) == twists(p), name


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)


@given(doc=st.dictionaries(st.text(), _JSON, max_size=6))
@example(doc=category_to_doc(families.su2(8)))
@example(doc=category_to_doc(families.builtin("prod(fibonacci,ising)")))
@settings(max_examples=100, deadline=None)
def test_doc_sha256_is_the_sha256_of_the_canonical_blob(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=str)
    assert doc_sha256(doc) == hashlib.sha256(blob.encode()).hexdigest()


def test_hashing_a_document_leaves_openssl_unloaded():
    # hashlib maps OpenSSL's libcrypto, a few MB resident, into the process
    code = (
        "import sys\n"
        "import premodular.cli\n"
        "from premodular import families\n"
        "from premodular.formats import category_to_doc, doc_sha256\n"
        "assert len(doc_sha256(category_to_doc(families.su2(4)))) == 64\n"
        "print('_hashlib' in sys.modules)\n"
    )
    src = str(Path(premodular.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert run.stdout == "False\n"


class TestPlumbingFormat:
    def test_round_trip(self):
        g = plumbing([("u", 2), ("v", -3)], [("u", "v")])
        back = plumbing_from_doc(plumbing_to_doc(g))
        assert back.vertices == g.vertices and back.edges == g.edges

    def test_malformed_rejected(self):
        with pytest.raises(CategoryFormatError):
            plumbing_from_doc({"format": 1, "vertices": [{"id": "a"}]})

    def test_integral_float_framing_is_read_as_an_integer(self):
        g = plumbing_from_doc({"format": 1, "vertices": [{"id": "u", "framing": 3.0},
                                                         {"id": "v", "framing": -2}]})
        assert g.vertices == (("u", 3), ("v", -2))
        assert all(type(m) is int for _, m in g.vertices)

    @pytest.mark.parametrize(
        "ids, edges",
        [([None, [1, 2]], [[None, [1, 2]]]), ([1, "1"], []), (["u", "v"], [["u", None]])],
        ids=["null-and-list-ids", "number-beside-its-string", "null-endpoint"],
    )
    def test_non_string_ids_exit_2(self, tmp_path, ids, edges):
        doc = {"format": 1, "vertices": [{"id": v, "framing": 0} for v in ids], "edges": edges}
        with pytest.raises(CategoryFormatError, match="vertex ids and edge endpoints must be JSON strings"):
            plumbing_from_doc(doc)
        (tmp_path / "g.json").write_text(json.dumps(doc))
        assert main(["rt", "--builtin", "su2:2", "-g", str(tmp_path / "g.json")]) == 2


def _labels_as_one_string(doc):
    """Ising with one-character labels, given as the string "1se" instead of a list."""
    renamed = json.loads(json.dumps(doc).replace('"sigma"', '"s"').replace('"eps"', '"e"'))
    doc.update(renamed, labels="1se")


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
        assert main(["verify", "--builtin", "su2:4"]) == 0
        out = capsys.readouterr().out
        assert "modular: true" in out

    def test_verify_file(self, workdir):
        assert main(["verify", str(workdir / "su2_4.json")]) == 0

    @pytest.mark.parametrize("name", ["su2:4", "prod(fibonacci,ising)"])
    def test_verify_evaluates_row_multiplicativity_once(self, tmp_path, monkeypatch, name):
        # assembly's gate and the report's entry read one evaluation on the data
        save_category(tmp_path / "doc.json", families.builtin(name))
        assert "sprime" in json.loads((tmp_path / "doc.json").read_text())
        dev, calls = modular._row_multiplicativity_dev, []
        monkeypatch.setattr(modular, "_row_multiplicativity_dev", lambda *a: calls.append(a) or dev(*a))
        assert main(["verify", str(tmp_path / "doc.json")]) == 0
        assert len(calls) == 1

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
            lambda doc: doc["theta"].update(sigma={"rational": [0.5, 1]}),
            lambda doc: doc["theta"].update(sigma={"rational": ["1", "16"]}),
            lambda doc: doc["dims"].update(eps="1.0"),
            lambda doc: doc.update(sprime=[row[:2] for row in doc["sprime"][:2]]),
            lambda doc: doc["sprime"][1].pop(),
            _labels_as_one_string,
        ],
        ids=["zero-denominator", "dims-missing-label", "labels-not-list",
             "complex-string", "fractional-multiplicity", "repeated-triple",
             "fractional-label-index", "multiplicity-beyond-int64", "infinite-multiplicity",
             "complex-one-number", "fractional-rational-part", "string-rational-parts",
             "string-dimension", "sprime-2x2-for-rank-3", "ragged-sprime-rows",
             "labels-as-string"],
    )
    def test_malformed_document_exits_2(self, tmp_path, capsys, mutate):
        doc = category_to_doc(families.ising())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, mutate",
        [
            ("dims", lambda doc: doc["dims"].update(sigma=math.nan)),
            ("dims", lambda doc: doc["dims"].update(sigma=-math.inf)),
            ("sprime", lambda doc: doc["sprime"][1][1].__setitem__(0, math.nan)),
            ("sprime", lambda doc: doc["sprime"][0][2].__setitem__(1, math.inf)),
            ("theta of 'sigma'", lambda doc: doc["theta"].update(sigma={"complex": [math.nan, 0]})),
            ("theta of 'eps'", lambda doc: doc["theta"].update(eps={"complex": [-1, math.inf]})),
        ],
        ids=["dims-nan", "dims-inf", "sprime-nan", "sprime-inf", "twist-nan", "twist-inf"],
    )
    def test_non_finite_number_exits_2_naming_the_field(self, tmp_path, capsys, field, mutate):
        doc = category_to_doc(families.ising())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "framing", ["abc", math.inf, 10**400], ids=["string", "infinity", "beyond-int64"]
    )
    def test_malformed_framing_exits_2(self, tmp_path, capsys, framing):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"format": 1, "vertices": [{"id": "u", "framing": framing}]}))
        assert main(["rt", "--builtin", "su2:2", "-g", str(path)]) == 2
        assert "framing" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["verify", "/no/such/file.json"]) == 2

    def test_bad_builtin_exits_2(self):
        assert main(["verify", "--builtin", "nonsense"]) == 2

    @pytest.mark.parametrize("expr", [
        "conj(" * 1200 + "ising" + ")" * 1200,
        "prod(" * 1000 + "trivial" + ",trivial)" * 1000,
    ], ids=["conj-1200", "prod-1000"])
    @pytest.mark.parametrize("command", [
        ["verify"], ["center"], ["condense", "-o", "o.json"],
        ["double", "--delta", "0", "-o", "o.json"], ["rt", "-g", "hopf.json"],
        ["double-rt", "-g", "hopf.json"], ["compare", "-g", "hopf.json"], ["kirby-test"],
    ], ids=lambda c: c[0])
    def test_deeply_nested_builtin_exits_2(self, workdir, capsys, command, expr):
        args = [str(workdir / a) if a.endswith(".json") else a for a in command]
        assert main([*args, "--builtin", expr]) == 2
        assert capsys.readouterr().err == "error: --builtin expression is nested too deeply\n"
        assert not (workdir / "o.json").exists()

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

    @pytest.mark.parametrize("command", [
        ["condense", "--builtin", "pointed:2:0"],
        ["double", "--builtin", "su2:4", "--delta", "0,2,4"],
    ], ids=["condense", "double"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        out_path = tmp_path / "no-such-dir" / "out.json"
        assert main([*command, "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: cannot write {out_path}: " in captured.err
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("command", [
        ["compare", "--builtin", "su2:4", "-g", "empty.json", "-g", "hopf.json"],
        ["compare", "su2_4.json", "--mode", "double", "--delta", "0,2,4", "-g", "hopf.json"],
        ["kirby-test", "--builtin", "ising", "--count", "2"],
        ["verify", "--builtin", "su2:4"],
        ["center", "--builtin", "su2:4"],
    ], ids=["compare-factorization", "compare-double", "kirby-test", "verify", "center"])
    def test_json_flags_are_booleans(self, workdir, capsys, command):
        # a numpy bool used to be written as the string "True"
        args = [str(workdir / a) if a.endswith(".json") else a for a in command]
        assert main([*args, "--output", "json"]) == 0
        flags = []

        def collect(node):
            if isinstance(node, dict):
                flags.extend(v for k, v in node.items() if k in ("passed", "modular", "even", "pointed"))
                node = list(node.values())
            if isinstance(node, list):
                for child in node:
                    collect(child)

        collect(json.loads(capsys.readouterr().out))
        assert flags and all(type(f) is bool for f in flags)

    @pytest.mark.parametrize("command", [
        ["double", "-o", "o.json"], ["double-rt", "-g", "hopf.json"],
        ["compare", "--mode", "double", "-g", "hopf.json"],
    ], ids=["double", "double-rt", "compare"])
    @pytest.mark.parametrize("builtin, delta, failed", [
        ("su2:4", "0,4", "centralizer ['0', '2', '4'] differs from the transparent part ['0', '4']"),
    ], ids=["centralizer"])
    def test_non_minimal_delta_names_the_failed_condition(self, workdir, capsys, command, builtin,
                                                          delta, failed):
        args = [str(workdir / a) if a.endswith(".json") else a for a in command]
        assert main([*args, "--builtin", builtin, "--delta", delta]) == 1
        assert capsys.readouterr().err == f"error: extension is not minimal: {failed}\n"

    @pytest.mark.parametrize("command", [
        ["double", "-o", "o.json"], ["double-rt", "-g", "hopf.json"],
        ["compare", "--mode", "double", "-g", "hopf.json"],
    ], ids=["double", "double-rt", "compare"])
    def test_degenerate_extension_is_named(self, workdir, capsys, command):
        # the centralizer of the whole category is its transparent part and
        # dim 8 != 8 * 2, but the first failure is that S' is singular
        args = [str(workdir / a) if a.endswith(".json") else a for a in command]
        delta = "(0,0),(0,1),(1,0),(1,1),(2,0),(2,1)"
        assert main([*args, "--builtin", "prod(su2:2,pointed:2:0)", "--delta", delta]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: extension is degenerate: S' is singular "
                              "(smallest-to-largest singular value ratio ")
        assert err.count("\n") == 1 and not (workdir / "o.json").exists()

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

    @pytest.mark.parametrize("command", ["rt", "double-rt"])
    def test_second_plumbing_exits_2(self, workdir, capsys, command):
        # only the first file used to be evaluated, with exit 0
        assert main([command, "--builtin", "su2:3", "-g", str(workdir / "hopf.json"),
                     "-g", str(workdir / "lens5.json")]) == 2
        assert "takes one -g/--plumbing file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["double", "-o", "o.json"], ["double-rt", "-g", "hopf.json"],
        ["compare", "--mode", "double", "-g", "hopf.json"],
    ], ids=["double", "double-rt", "compare"])
    @pytest.mark.parametrize("delta, code", [("0,x", 2), ("0, 1.5", 2), ("0,,2", 2), ("0,1", 1)],
                             ids=["unknown", "non-integral", "empty", "not-closed"])
    def test_delta_labels(self, workdir, capsys, command, delta, code):
        # an unknown label is a parse error; a known set that is not a subcategory fails a check
        args = [workdir / a if a.endswith(".json") else a for a in command]
        assert main([*map(str, args), "--builtin", "su2:4", "--delta", delta]) == code
        err = capsys.readouterr().err
        assert ("error: --delta: unknown label" if code == 2 else "not closed under fusion") in err

    @pytest.mark.parametrize("command", [
        ["double", "-o", "o.json"], ["double-rt", "-g", "hopf.json"],
        ["compare", "--mode", "double", "-g", "hopf.json"],
    ], ids=["double", "double-rt", "compare"])
    @pytest.mark.parametrize("builtin, delta, code", [
        ("prod(su2:4,trivial)", "(0,0),(2,0),(4,0)", 0),
        ("prod(su2:2,conj(su2:2))", "(0,0),(2,2)", 1),  # parses; not a minimal extension
        ("prod(su2:4,trivial)", "(0,0), (2,0)", 1),  # parses; not closed under fusion
        ("prod(su2:4,trivial)", "(0,0),(2,0", 2),
    ], ids=["even-part", "diagonal-z2", "not-closed", "unbalanced"])
    def test_delta_takes_product_labels(self, workdir, capsys, command, builtin, delta, code):
        # commas inside a product label such as (0,2) do not split it
        args = [workdir / a if a.endswith(".json") else a for a in command]
        assert main([*map(str, args), "--builtin", builtin, "--delta", delta]) == code
        err = capsys.readouterr().err
        assert ("error: --delta: unknown label '(2,0'" in err) == (code == 2)

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {a.dest for a in sp._actions if not isinstance(a, argparse._HelpAction)}
            for name, sp in subs.choices.items()
        }
        common = {"tolerance", "output", "category", "builtin"}
        assert flags == {
            "verify": common,
            "center": common,
            "condense": common | {"out"},
            "double": common | {"delta", "out"},
            "rt": common | {"term_cap", "plumbing"},
            "double-rt": common | {"term_cap", "plumbing", "delta"},
            "compare": common | {"term_cap", "plumbing", "mode", "delta"},
            "kirby-test": common | {"term_cap", "seed", "count", "max_vertices"},
        }
        assert sum(map(len, flags.values())) == 48

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--builtin", "su2:4", "--seed", "1"], "unrecognized arguments: --seed"),
        (["condense", "--builtin", "su2:4", "-o", "o.json", "--term-cap", "5"],
         "unrecognized arguments: --term-cap"),
        (["verify", "--builtin", "su2", "--level", "4"], "unrecognized arguments: --level"),
        (["compare", "--builtin", "su2:3", "--mode", "factorization", "--delta", "0",
          "-g", "hopf.json"], "error: --delta applies only to --mode double"),
    ], ids=["verify-seed", "condense-term-cap", "level", "factorization-delta"])
    def test_flag_a_subcommand_does_not_read_exits_2(self, workdir, capsys, argv, message):
        args = [str(workdir / a) if a.endswith(".json") else a for a in argv]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (workdir / "o.json").exists()

    def test_category_file_and_builtin_together_exit_2(self, workdir, capsys):
        # the file was ignored, even one that does not exist
        assert main(["verify", "/no/such/file.json", "--builtin", "ising"]) == 2
        assert "not both: '/no/such/file.json' and --builtin 'ising'" in capsys.readouterr().err
        su2_4, hopf = str(workdir / "su2_4.json"), str(workdir / "hopf.json")
        assert main(["rt", su2_4, "--builtin", "su2:3", "-g", hopf]) == 2
        assert f"not both: {su2_4!r} and --builtin 'su2:3'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--count", "-5"), ("--max-vertices", "-1"), ("--count", "x")])
    def test_kirby_test_sizes_are_non_negative_integers(self, capsys, option, value):
        assert main(["kirby-test", "--builtin", "ising", option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: must be a non-negative integer, not '{value}'" in captured.err

    @pytest.mark.filterwarnings("error")
    def test_ring_without_dimensions_fails_verify_without_warnings(self, tmp_path, capsys):
        # no N entries: the fusion matrix sum is zero and has no Perron-Frobenius vector
        doc = category_to_doc(families.ising())
        doc.update(N=[], dims={}, sprime=[])
        path = tmp_path / "empty_n.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "premodular assembly failed: the Perron-Frobenius vector is not positive at" in out

    def test_usage_error_exits_2(self, capsys):
        assert main(["rt", "--builtin", "su2:3"]) == 2  # missing -g
        capsys.readouterr()

    def test_nonmodular_rt_exits_1(self, workdir):
        assert main(["rt", str(workdir / "even.json"), "-g", str(workdir / "hopf.json")]) == 1

    def test_invalid_tolerance_exits_2(self, workdir):
        assert main(["verify", "--builtin", "ising", "--tolerance", "-1"]) == 2

    @pytest.mark.parametrize(
        "option", [["--term-cap", "nan"], ["--tolerance", "nan"], ["--tolerance", "inf"]],
        ids=["nan-term-cap", "nan-tolerance", "infinite-tolerance"],
    )
    def test_non_finite_run_setting_exits_2(self, tmp_path, capsys, option):
        # su2:8 on a 12-vertex chain has 9**12 = 2.8e11 colorings, which a NaN cap let through
        save_plumbing(tmp_path / "chain.json", plumbing([(f"v{i}", -2) for i in range(12)],
                                                        [(f"v{i}", f"v{i + 1}") for i in range(11)]))
        assert main(["rt", "--builtin", "su2:8", "-g", str(tmp_path / "chain.json"), *option]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, n, hub", [
        ("double-rt", 300, False),  # 12**299 is beyond the largest float
        ("rt", 5001, True),  # the hub of a 5,000-leaf star: its messages overflowed to NaN
    ], ids=["isolated", "star"])
    def test_invariant_that_is_not_finite_exits_1(self, tmp_path, capsys, command, n, hub):
        edges = [("v0", f"v{i}") for i in range(1, n)] if hub else []
        framing = -2 if hub else 0
        save_plumbing(tmp_path / "g.json", plumbing([(f"v{i}", framing) for i in range(n)], edges))
        assert main([command, "--builtin", "su2:4", "-g", str(tmp_path / "g.json"), "--term-cap", "inf"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the invariant of the {n}-vertex plumbing "
                                "is not finite in floating point\n")

    @pytest.mark.filterwarnings("error")
    def test_long_chain_rt_exits_0(self, tmp_path, capsys):
        # a 1,000-vertex -2 chain, whose contraction with the unnormalised S' overflowed
        n = 1000
        save_plumbing(tmp_path / "g.json", plumbing([(f"v{i}", -2) for i in range(n)],
                                                    [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]))
        assert main(["rt", "--builtin", "su2:4", "-g", str(tmp_path / "g.json"), "--term-cap", "inf"]) == 0
        assert capsys.readouterr().err == ""

    def test_double_names_the_label_that_is_not_even(self, tmp_path, capsys):
        assert main(["double", "--builtin", "su2:2", "--delta", "0,2", "-o", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == ("error: transparent part of the subcategory must be even and "
                                           "pointed for the double (twist != 1 at 2)\n")

    def test_infinite_term_cap_turns_the_cap_off(self, workdir):
        assert main(["rt", "--builtin", "su2:8", "-g", str(workdir / "hopf.json"),
                     "--term-cap", "inf"]) == 0

    def test_non_transparent_unit_is_named(self, tmp_path, capsys):
        # every dimension doubled and no S': the balanced S' leaves the unit non-transparent
        doc = category_to_doc(families.su2(4).restrict([0, 2, 4]))
        doc["dims"] = {name: 2 * d for name, d in doc["dims"].items()}
        doc["sprime"] = []
        path = tmp_path / "doubled.json"
        path.write_text(json.dumps(doc))
        for command in (["condense"], ["double", "--delta", "0,2,4"]):
            assert main([*command, str(path), "-o", str(tmp_path / "o.json")]) == 1
            assert "error: the unit '0' is not transparent" in capsys.readouterr().err
        assert main(["center", str(path)]) == 0
        assert capsys.readouterr().out == "center: {}\neven: True  pointed: True\n"
        assert main(["verify", str(path)]) == 1
        assert "dims:unit: FAIL" in capsys.readouterr().out


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


def _mutations(keys):
    """Up to three (path, value) pairs; paths and values draw on ``keys``."""
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.sampled_from([10**30, 10**400, -(2**63), 2**63, 0.5, "", *keys]),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=8,
    )
    return st.lists(
        st.tuples(
            st.lists(st.integers(0, 30) | st.sampled_from(keys), min_size=1, max_size=4)
            .map(tuple),
            json_values | st.just(_DELETE),
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


@given(base=st.sampled_from(_FUZZ_BASES), mutations=_mutations(_FUZZ_KEYS))
@example(base="ising", mutations=[(("N", 1), ["1", "1", "1", 1])])
@example(base="ising", mutations=[(("N", 0, 0), 0.5)])
@example(base="ising", mutations=[(("N", 0, 3), 10**30)])
@example(base="ising", mutations=[(("N", 0, 3), math.inf)])
@example(base="ising", mutations=[(("theta", "sigma"), {"complex": [1]})])
@example(base="ising", mutations=[(("dims", "sigma"), 10**400)])
@example(base="ising", mutations=[(("theta", "sigma", "rational", 0), True)])
@example(base="ising", mutations=[(("dims", "sigma"), True)])
@example(base="ising", mutations=[(("sprime", 1, 1, 0), False)])
@example(  # no dims; sum_a N_a = [[0, 1], [2, 0]] is periodic, its eigenvector not multiplicative
    base="fibonacci",
    mutations=[(("dims",), {}), (("N",), [["1", "1", "tau", 1], ["1", "tau", "1", 2]])],
)
@settings(max_examples=150, deadline=None)
def test_mutated_document_keeps_the_exit_code_contract(fuzz_docs, fuzz_path, base, mutations):
    doc = json.loads(fuzz_docs[base])
    for path, value in mutations:
        _mutate(doc, path, value)
    fuzz_path.write_text(json.dumps(doc))
    # kirby-test reads no plumbing document, so its document boundary is this one
    for command in (["verify"], ["kirby-test", "--count", "2", "--max-vertices", "3"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, str(fuzz_path)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


# -- mutation fuzz of plumbing documents -----------------------------------------

_PLUMBING_KEYS = ("format", "vertices", "edges", "id", "framing", "u", "v", "w")
_FUZZ_GRAPH = plumbing([("u", -2), ("v", 1), ("w", 3)], [("u", "v"), ("v", "w")])
# mutations of the chain u - v - w that leave a graph which is not a forest, by defect
_NOT_A_FOREST = {
    "duplicate vertex ids": [(("vertices", 1, "id"), "u")],
    "references an unknown vertex": [(("edges", 0, 0), "x")],
    "self-loop": [(("edges", 0, 1), "u")],
    "duplicate edge": [(("edges", 1), ["v", "u"])],
    "closes a cycle": [(("edges",), [["u", "v"], ["v", "w"], ["w", "u"]])],
}
_PLUMBING_COMMANDS = (
    ["rt", "--builtin", "su2:2"],
    ["double-rt", "--builtin", "su2:2"],
    ["compare", "--builtin", "su2:2"],
    ["compare", "--builtin", "su2:4", "--mode", "double", "--delta", "0,2,4"],
)


@given(command=st.sampled_from(_PLUMBING_COMMANDS), mutations=_mutations(_PLUMBING_KEYS))
@example(command=_PLUMBING_COMMANDS[0], mutations=[(("vertices", 0, "framing"), "abc")])
@example(command=_PLUMBING_COMMANDS[0], mutations=[(("vertices", 0, "framing"), math.inf)])
@example(command=_PLUMBING_COMMANDS[0], mutations=[(("vertices", 0, "framing"), 10**400)])
@example(command=_PLUMBING_COMMANDS[0], mutations=_NOT_A_FOREST["duplicate vertex ids"])
@example(command=_PLUMBING_COMMANDS[1], mutations=_NOT_A_FOREST["references an unknown vertex"])
@example(command=_PLUMBING_COMMANDS[2], mutations=_NOT_A_FOREST["self-loop"])
@example(command=_PLUMBING_COMMANDS[3], mutations=_NOT_A_FOREST["duplicate edge"])
@example(command=_PLUMBING_COMMANDS[0], mutations=_NOT_A_FOREST["closes a cycle"])
@example(command=_PLUMBING_COMMANDS[0], mutations=[(("vertices", 0, "id"), None), (("vertices", 1, "id"), [1, 2]),
                                                   (("edges",), [[None, [1, 2]], [[1, 2], "w"]])])
@example(command=_PLUMBING_COMMANDS[1], mutations=[(("vertices", 0, "id"), 1), (("vertices", 1, "id"), "1"),
                                                   (("edges",), [])])
@example(command=_PLUMBING_COMMANDS[2], mutations=[(("edges", 0, 0), None)])
@settings(max_examples=150, deadline=None)
def test_mutated_plumbing_keeps_the_exit_code_contract(fuzz_path, command, mutations):
    doc = plumbing_to_doc(_FUZZ_GRAPH)
    for path, value in mutations:
        _mutate(doc, path, value)
    fuzz_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*command, "-g", str(fuzz_path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("defect", sorted(_NOT_A_FOREST))
def test_graph_that_is_not_a_forest_exits_2_naming_the_defect(tmp_path, capsys, defect):
    doc = plumbing_to_doc(_FUZZ_GRAPH)
    for path, value in _NOT_A_FOREST[defect]:
        _mutate(doc, path, value)
    with pytest.raises(CategoryFormatError, match=defect):
        plumbing_from_doc(doc)
    (tmp_path / "g.json").write_text(json.dumps(doc))
    assert main(["rt", "--builtin", "su2:2", "-g", str(tmp_path / "g.json")]) == 2
    err = capsys.readouterr().err
    assert "error: malformed plumbing document: " in err and defect in err
