"""End-to-end tests for the command line interface.

Each test drives prelie.cli.main with an argv list and parses the JSON it
prints, so the asserted exit codes and schemas are exactly what a shell
user sees.
"""

import json
import shutil
import subprocess

import pytest

from prelie.algebras import IDENTITY_KINDS
from prelie.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items()
                if k != "elapsed"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ------------------------------------------------------------------- build

def test_build_golden_gf5_n3(capsys):
    code, data = run_json(capsys, "build", "--family", "in", "--n", "3",
                          "--field", "gf5")
    assert code == 0
    assert data["dim"] == 3
    assert data["field"] == {"kind": "prime", "p": 5}
    quadruples = {tuple(q) for q in data["table"]}
    assert quadruples == {(1, 1, 3, "1"), (2, 2, 3, "1"), (3, 1, 1, "1"),
                          (3, 2, 2, "1"), (3, 3, 3, "2")}
    assert len(data["table"]) == 5


def test_build_dot_product_family_dim_from_marked(capsys):
    code, data = run_json(capsys, "build", "--family", "ex1", "--field",
                          "qi", "--marked", "0,1+1*r")
    assert code == 0
    assert data["dim"] == 2
    assert data["field"]["kind"] == "quadratic"


def test_build_truncation_rank_gives_rank_plus_one(capsys):
    code, data = run_json(capsys, "build", "--family", "iinf", "--n", "3",
                          "--field", "gf3")
    assert code == 0
    assert data["dim"] == 4


def test_build_triangular_dimension(capsys):
    code, data = run_json(capsys, "build", "--family", "un", "--n", "3",
                          "--field", "q")
    assert code == 0
    assert data["dim"] == 6


def test_build_out_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "alg.json"
    code, printed, _ = run_cli(capsys, "build", "--family", "in", "--n", "2",
                               "--field", "gf3", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(printed)


def test_built_algebra_round_trips_through_file(capsys, tmp_path):
    code, data = run_json(capsys, "build", "--family", "in", "--n", "2",
                          "--field", "gf5")
    path = write_json(tmp_path / "alg.json", data)
    code, rep = run_json(capsys, "simplicity", "--algebra", path)
    assert code == 0
    assert rep == {"simple": True}


# --------------------------------------------------------------- checkers

def test_check_identity_basis_method(capsys):
    code, rep = run_json(capsys, "check-identity", "--family", "un", "--n",
                         "2", "--field", "gf5", "--kind", "pre_lie")
    assert code == 0
    assert rep == {"kind": "pre_lie", "holds": True, "method": "basis",
                   "witness": None}


def test_check_identity_symbolic_failure_has_witness(capsys):
    code, rep = run_json(capsys, "check-identity", "--family", "in", "--n",
                         "2", "--field", "q", "--kind",
                         "third_power_associative")
    assert code == 0
    assert rep["holds"] is False
    assert rep["method"] == "symbolic"
    assert rep["witness"]["coordinate"] == 1


def test_check_identity_exhaustive_flexible(capsys):
    code, rep = run_json(capsys, "check-identity", "--family", "in", "--n",
                         "2", "--field", "gf3", "--kind", "flexible",
                         "--exhaustive")
    assert code == 0
    assert rep["holds"] is False
    assert rep["method"] == "exhaustive"
    assert rep["witness"] == [["1", "0"], ["0", "1"]]


def test_check_identity_accepts_every_library_kind_and_no_other(capsys):
    for kind in IDENTITY_KINDS:
        code, rep = run_json(capsys, "check-identity", "--family", "un",
                             "--n", "2", "--field", "gf5", "--kind", kind)
        assert code == 0 and rep["kind"] == kind
    with pytest.raises(SystemExit) as exc:
        main(["check-identity", "--family", "un", "--n", "2", "--kind",
              "lie"])
    assert exc.value.code == 2


def test_simplicity_char_two_allowed(capsys):
    code, rep = run_json(capsys, "simplicity", "--family", "in", "--n", "3",
                         "--field", "gf2")
    assert code == 0
    assert rep == {"simple": True}


def test_simplicity_reports_witness_ideal(capsys):
    code, rep = run_json(capsys, "simplicity", "--family", "un", "--n", "2",
                         "--field", "gf3")
    assert code == 0
    assert rep["simple"] is False
    assert rep["witness_ideal"]["ambient"] == 3
    assert rep["witness_ideal"]["basis"]


def test_derivations_dimension_and_shape(capsys):
    code, rep = run_json(capsys, "derivations", "--family", "in", "--n", "4",
                         "--field", "q")
    assert code == 0
    assert rep["dim"] == 3
    for M in rep["basis"]:
        assert [row[-1] for row in M] == ["0"] * 4
        assert M[-1] == ["0"] * 4


def test_automorphisms_frozen_group_and_correspondence(capsys):
    code, rep = run_json(capsys, "automorphisms", "--family", "in", "--n",
                         "2", "--field", "gf3")
    assert code == 0
    assert rep["count"] == 2
    assert sorted(rep["matrices"]) == [[["1", "0"], ["0", "1"]],
                                       [["2", "0"], ["0", "1"]]]
    assert rep["block_correspondence"] == {"holds": True,
                                           "automorphisms": 2,
                                           "orthogonal_blocks": 2}


def test_automorphisms_scans_the_group_once(capsys, monkeypatch):
    # One scan of the 3 x 3 group and one of the 2 x 2 orthogonal blocks.
    from prelie import symmetry
    scan, sizes = symmetry.scan_matrices, []

    def counting_scan(F, dim, *args, **kwargs):
        sizes.append(dim)
        return scan(F, dim, *args, **kwargs)

    monkeypatch.setattr(symmetry, "scan_matrices", counting_scan)
    code, rep = run_json(capsys, "automorphisms", "--n", "3", "--field",
                         "gf3")
    assert code == 0
    assert rep["count"] == 8 and rep["block_correspondence"]["holds"]
    assert sorted(sizes) == [2, 3]


def test_orthogonal_blocks_need_no_walk_over_all_matrices(capsys,
                                                          monkeypatch):
    from prelie import linalg
    from prelie.fields import make_field
    from prelie.symmetry import enumerate_orthogonal

    def refuse(*args, **kwargs):
        raise AssertionError("walked every matrix")

    monkeypatch.setattr(linalg, "enumerate_matrices", refuse)
    assert len(enumerate_orthogonal(make_field("gf3"), 2)) == 8
    code, rep = run_json(capsys, "automorphisms", "--n", "3", "--field",
                         "gf3")
    assert code == 0 and rep["block_correspondence"]["holds"]


def test_automorphisms_non_apex_has_no_correspondence(capsys):
    code, rep = run_json(capsys, "automorphisms", "--family", "un", "--n",
                         "2", "--field", "gf3")
    assert code == 0
    assert "block_correspondence" not in rep
    assert rep["count"] >= 1


# ------------------------------------------------------- operator commands

def test_rb_verify_schema_on_operator(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", [["0", "0"], ["2", "4"]])
    code, rep = run_json(capsys, "rb-verify", "--family", "in", "--n", "2",
                         "--field", "gf5", "--op", op, "--weight", "1")
    assert code == 0
    assert set(rep) == {"operator", "weight", "is_rb", "splitting", "case",
                        "certificate", "theorem2"}
    assert rep["operator"] == [["0", "0"], ["2", "4"]]
    assert rep["weight"] == "1"
    assert rep["is_rb"] is True
    assert rep["splitting"] is True
    assert rep["case"]["case"] == 2
    assert rep["case"]["phi_normalized"] is True
    assert rep["certificate"]["reproduced"] is True
    assert rep["theorem2"] == {"r2_plus_lr_zero": True, "ata_zero": False,
                               "phi_ata_zero": True}


def test_rb_verify_rejection_exits_zero_with_witness(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", [["1", "0"], ["0", "1"]])
    code, rep = run_json(capsys, "rb-verify", "--family", "in", "--n", "2",
                         "--field", "gf5", "--op", op, "--weight", "1")
    assert code == 0
    assert rep["is_rb"] is False
    assert rep["case"] is None
    assert rep["certificate"] is None
    assert rep["theorem2"] is None
    assert len(rep["witness"]) == 2


def test_rb_verify_weight_zero_operator_has_null_certificate(capsys,
                                                             tmp_path):
    op = write_json(tmp_path / "op.json", [["0", "0"], ["0", "0"]])
    code, rep = run_json(capsys, "rb-verify", "--family", "in", "--n", "2",
                         "--field", "q", "--op", op, "--weight", "0")
    assert code == 0
    assert rep["is_rb"] is True
    assert rep["case"] == {"case": "trivial", "variant": "zero",
                           "apex_coefficient": "0"}
    assert rep["certificate"] is None
    assert rep["theorem2"]["ata_zero"] is True


def test_rb_verify_fractional_weight(capsys, tmp_path):
    op = write_json(tmp_path / "op.json",
                    [["-1/2", "0"], ["0", "-1/2"]])
    code, rep = run_json(capsys, "rb-verify", "--family", "in", "--n", "2",
                         "--field", "q", "--op", op, "--weight", "1/2")
    assert code == 0
    assert rep["is_rb"] is True
    assert rep["case"]["variant"] == "minus_weight"


@pytest.mark.parametrize("field, weight, minus_weight", [
    ("qi", "-3-2*r", "3+2*r"),
    ("q", "-1/2", "1/2"),
])
def test_weight_literal_may_start_with_minus(capsys, tmp_path, field,
                                             weight, minus_weight):
    op = write_json(tmp_path / "op.json",
                    [[minus_weight if i == j else "0" for j in range(3)]
                     for i in range(3)])
    for form in (["--weight", weight], [f"--weight={weight}"]):
        code, rep = run_json(capsys, "rb-verify", "--family", "in", "--n",
                             "3", "--field", field, "--op", op, *form)
        assert code == 0
        assert rep["weight"] == weight
        assert rep["is_rb"] is True
        assert rep["case"]["variant"] == "minus_weight"
    code, rep = run_json(capsys, "rb-index", "--n", "2", "--field", "gf5",
                         "--weight", "-3")
    assert code == 0 and rep["weight"] == "2"


def test_marked_literal_may_start_with_minus(capsys):
    code, data = run_json(capsys, "build", "--family", "ex1", "--field",
                          "qi", "--marked", "-r,0,-1/2")
    assert code == 0
    assert data["dim"] == 3


def test_flag_after_scalar_option_is_still_a_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rb-index", "--n", "2", "--field", "gf5", "--weight",
              "--cap", "10"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_rb_verify_non_apex_case_is_null(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", [["0"] * 3] * 3)
    code, rep = run_json(capsys, "rb-verify", "--family", "un", "--n", "2",
                         "--field", "gf5", "--op", op, "--weight", "1")
    assert code == 0
    assert rep["is_rb"] is True
    assert rep["case"] is None
    assert rep["theorem2"] is None


def test_rb_enumerate_all_weights_counts(capsys):
    code, rep = run_json(capsys, "rb-enumerate", "--family", "in", "--n",
                         "2", "--field", "gf3", "--weight", "all")
    assert code == 0
    counts = {w: rep["weights"][w]["count"] for w in rep["weights"]}
    assert counts == {"0": 1, "1": 2, "2": 2}
    assert rep["weights"]["1"]["operators"] == [
        [["0", "0"], ["0", "0"]], [["2", "0"], ["0", "2"]]]


def test_rb_enumerate_single_weight_out_file(capsys, tmp_path):
    out = tmp_path / "ops.json"
    code, printed, _ = run_cli(capsys, "rb-enumerate", "--family", "in",
                               "--n", "2", "--field", "gf5", "--weight",
                               "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data == json.loads(printed)
    assert data["weights"]["1"]["count"] == 8
    ops = data["weights"]["1"]["operators"]
    assert [["0", "0"], ["2", "4"]] in ops


def test_rb_enumerate_beyond_brute_force_reach(capsys):
    code, rep = run_json(capsys, "rb-enumerate", "--n", "3", "--field",
                         "gf5", "--weight", "all")
    assert code == 0
    counts = [rep["weights"][w]["count"] for w in "01234"]
    assert counts == [25, 62, 62, 62, 62]


def test_rb_index_values(capsys):
    code, rep = run_json(capsys, "rb-index", "--family", "in", "--n", "2",
                         "--field", "gf5", "--weight", "1")
    assert code == 0
    assert rep == {"weight": "1", "index": 2}
    code, rep = run_json(capsys, "rb-index", "--family", "in", "--n", "2",
                         "--field", "gf3", "--weight", "1")
    assert code == 0
    assert rep == {"weight": "1", "index": 1}


def test_rb_index_infinity_marker(capsys, tmp_path):
    path = write_json(tmp_path / "abelian.json",
                      {"field": {"kind": "prime", "p": 3}, "dim": 1,
                       "table": []})
    code, rep = run_json(capsys, "rb-index", "--algebra", path,
                         "--weight", "1")
    assert code == 0
    assert rep == {"weight": "1", "index": "infinity"}


def test_decompose_gf3_plane(capsys):
    code, rep = run_json(capsys, "decompose", "--family", "in", "--n", "2",
                         "--field", "gf3")
    assert code == 0
    assert rep["count"] == 2
    for rec in rep["decompositions"]:
        assert rec["normal_form"] is True
        assert sorted(rec["parts_contain_apex"]) == [False, True]


def test_decompose_gf5_includes_off_shape_pairs(capsys):
    code, rep = run_json(capsys, "decompose", "--family", "in", "--n", "2",
                         "--field", "gf5")
    assert code == 0
    assert rep["count"] == 8
    shapes = [rec["normal_form"] for rec in rep["decompositions"]]
    assert shapes.count(True) == 6
    assert shapes.count(False) == 2


# ----------------------------------------------------------------- suites

def test_verify_theorems_core_passes(capsys):
    code, rep = run_json(capsys, "verify-theorems", "--suite", "core",
                         "--max-n", "3", "--fields", "gf3,gf5")
    assert code == 0
    assert rep["suite"] == "core"
    assert rep["ok"] is True
    assert rep["failed"] == 0
    assert rep["config"]["fields"] == ["gf3", "gf5"]
    assert rep["config"]["max_n"] == 3
    names = [c["name"] for c in rep["checks"]]
    assert names == ["pre-lie-identity", "construction-coherence",
                     "power-associativity", "simplicity"]
    for check in rep["checks"]:
        assert check["ok"] is True
        assert check["witness"] is None


def test_verify_theorems_report_is_deterministic(capsys):
    _, first = run_json(capsys, "verify-theorems", "--suite", "core",
                        "--max-n", "2", "--fields", "gf3")
    _, second = run_json(capsys, "verify-theorems", "--suite", "core",
                         "--max-n", "2", "--fields", "gf3")
    assert strip_elapsed(first) == strip_elapsed(second)


def test_verify_theorems_worker_count_does_not_change_verdicts(capsys):
    _, one = run_json(capsys, "verify-theorems", "--suite", "t1",
                      "--max-n", "2", "--fields", "gf3", "--workers", "1")
    _, two = run_json(capsys, "verify-theorems", "--suite", "t1",
                      "--max-n", "2", "--fields", "gf3", "--workers", "2")
    stripped_one, stripped_two = strip_elapsed(one), strip_elapsed(two)
    stripped_one["config"].pop("workers")
    stripped_two["config"].pop("workers")
    assert stripped_one == stripped_two


def test_suite_run_scans_each_operator_set_once(capsys, monkeypatch):
    from prelie import suites
    scan, calls = suites.enumerate_rb_operators, []

    def counting_scan(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(suites, "enumerate_rb_operators", counting_scan)
    # quadratic-isotropy and case-analysis read the three GF(3) n=2 sets,
    # once per run: a second run in the same process scans them again.
    for runs in (1, 2):
        code, rep = run_json(capsys, "verify-theorems", "--suite", "t2",
                             "--max-n", "2", "--fields", "gf3")
        assert code == 0 and rep["ok"]
        assert len(calls) == 3 * runs


def test_suite_all_scans_each_field_dimension_and_weight_once(capsys,
                                                              monkeypatch):
    from prelie import suites
    scan, calls = suites.enumerate_rb_operators, []

    def counting_scan(A, w, **kwargs):
        calls.append((A.field, A.dim, w))
        return scan(A, w, **kwargs)

    monkeypatch.setattr(suites, "enumerate_rb_operators", counting_scan)
    # field-contrast and unital-lifts read GF(3) and GF(5) sets that the
    # scan-backed checks of the default config have already scanned.
    code, rep = run_json(capsys, "verify-theorems", "--suite", "all")
    assert code == 0 and rep["ok"]
    assert len(calls) == len(set(calls)) == 11
    # Without the scan-backed checks, unital-lifts scans its own three sets.
    calls.clear()
    code, rep = run_json(capsys, "verify-theorems", "--suite", "remarks")
    assert code == 0 and rep["ok"]
    assert [(repr(F), n) for F, n, _ in calls] == [("GF(3)", 3)] * 3


@pytest.mark.parametrize("argv", [
    ("rb-enumerate", "--n", "3", "--field", "gf3", "--weight", "all"),
    ("automorphisms", "--n", "3", "--field", "gf3"),
])
def test_worker_count_does_not_change_multi_scan_commands(capsys, argv):
    _, one = run_json(capsys, *argv, "--workers", "1")
    _, two = run_json(capsys, *argv, "--workers", "2")
    assert strip_elapsed(one) == strip_elapsed(two)


@pytest.mark.parametrize("suite,uncovered", [
    ("cor", ["kernel-splitting", "decomposition-operators", "index-bound"]),
    ("t2", ["quadratic-isotropy", "case-analysis"]),
])
def test_scan_backed_checks_without_a_scan_fail(capsys, suite, uncovered):
    code, rep = run_json(capsys, "verify-theorems", "--suite", suite,
                         "--fields", "q", "--max-n", "3")
    assert code == 1
    failed = [c for c in rep["checks"] if not c["ok"]]
    assert [c["name"] for c in failed] == uncovered
    for check in failed:
        assert "no finite field small enough" in check["witness"]


def test_decompositions_cover_a_field_of_order_above_five(capsys):
    code, rep = run_json(capsys, "verify-theorems", "--suite", "cor",
                         "--fields", "gf7", "--max-n", "2")
    assert code == 0
    check = {c["name"]: c for c in rep["checks"]}["decomposition-operators"]
    assert check["ok"] and check["witness"] is None


def test_verify_theorems_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, "verify-theorems", "--suite",
                               "examples", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(printed)


# ------------------------------------------------------------- exit codes

def test_unknown_field_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "build", "--family", "in", "--n", "3",
                             "--field", "gf11x")
    assert code == 2
    assert out == ""
    assert "gf11x" in err


@pytest.mark.parametrize("fields", [",", "foo", "gf2"])
def test_bad_fields_are_one_usage_error_and_no_report(capsys, fields):
    code, out, err = run_cli(capsys, "verify-theorems", "--suite", "all",
                             f"--fields={fields}")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_unwritable_out_path_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.json")
    code, out, err = run_cli(capsys, "build", "--n", "2", "--field", "gf5",
                             "--out", path)
    assert code == 2
    assert out == ""
    assert path in err
    assert "Traceback" not in err


def test_char_two_without_escape_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "in", "--n", "3",
                           "--field", "gf2")
    assert code == 2
    assert "characteristic 2" in err


def test_malformed_operator_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text("not json")
    code, _, err = run_cli(capsys, "rb-verify", "--family", "in", "--n",
                           "2", "--field", "gf5", "--op", str(path),
                           "--weight", "1")
    assert code == 2
    assert "not valid JSON" in err


def test_wrong_operator_shape_is_usage_error(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", [["1", "0"]])
    code, _, err = run_cli(capsys, "rb-verify", "--family", "in", "--n",
                           "2", "--field", "gf5", "--op", op,
                           "--weight", "1")
    assert code == 2
    assert "bad operator JSON" in err


def test_operator_object_of_another_shape_is_usage_error(capsys, tmp_path):
    """Four entries fill a 2 x 2 operator, but the object says 3 x 3."""
    op = write_json(tmp_path / "op.json", {"rows": 3, "cols": 3,
                                           "entries": ["0", "0", "0", "0"]})
    code, out, err = run_cli(capsys, "rb-verify", "--family", "in", "--n",
                             "2", "--field", "gf5", "--op", op,
                             "--weight", "1")
    assert code == 2 and out == ""
    assert "bad operator JSON" in err and "rows" in err


def test_missing_marked_vector_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "ex1", "--field",
                           "gf5")
    assert code == 2
    assert "--marked" in err


def test_missing_dimension_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "--family", "in", "--field",
                           "gf5")
    assert code == 2
    assert "--n" in err


def test_enumerate_all_weights_needs_finite_field(capsys):
    code, _, err = run_cli(capsys, "rb-enumerate", "--family", "in", "--n",
                           "2", "--field", "q", "--weight", "all")
    assert code == 2
    assert "finite" in err


def test_cap_exceeded_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "automorphisms", "--family", "in", "--n",
                           "3", "--field", "gf5", "--cap", "100")
    assert code == 2
    assert "cap" in err.lower()


def test_bad_weight_literal_is_usage_error(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", [["0", "0"], ["0", "0"]])
    code, _, err = run_cli(capsys, "rb-verify", "--family", "in", "--n",
                           "2", "--field", "gf5", "--op", op,
                           "--weight", "x+y")
    assert code == 2
    assert "weight" in err


def test_unknown_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", "--suite", "nope"])
    assert exc.value.code == 2


# Commands without --workers, each with the arguments it requires.
WITHOUT_WORKERS = {
    "build": ["--n", "2", "--field", "gf3"],
    "check-identity": ["--n", "2", "--field", "gf3", "--kind", "pre_lie"],
    "simplicity": ["--n", "2", "--field", "gf3"],
    "derivations": ["--n", "2", "--field", "gf3"],
    "rb-verify": ["--n", "2", "--field", "gf3", "--op", "op.json",
                  "--weight", "1"],
    "decompose": ["--n", "2", "--field", "gf3"],
}


@pytest.mark.parametrize("command", ["build", "check-identity",
                                     "simplicity", "derivations",
                                     "automorphisms", "rb-verify",
                                     "rb-enumerate", "rb-index", "decompose",
                                     "verify-theorems"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_usage_error(capsys, command, workers):
    with pytest.raises(SystemExit) as exc:
        main([command, *WITHOUT_WORKERS.get(command, []),
              "--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    expected = (f"unrecognized arguments: --workers {workers}"
                if command in WITHOUT_WORKERS else "at least 1")
    assert "--workers" in err and expected in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "derivations", "rb-verify"])
def test_cap_is_a_usage_error_where_nothing_is_enumerated(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, *WITHOUT_WORKERS[command], "--cap", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --cap 2" in err
    assert "Traceback" not in err


def test_verify_theorems_takes_no_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", "--suite", "all", "--cap", "5000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --cap 5000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
def test_max_n_below_two_is_usage_error(capsys, max_n):
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", "--suite", "all", f"--max-n={max_n}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-n" in err and "at least 2" in err
    assert "Traceback" not in err


def test_seed_is_only_a_verify_theorems_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rb-enumerate", "--n", "2", "--field", "gf3", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_unknown_command_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.skipif(shutil.which("prelie") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["prelie", "rb-index", "--family", "in", "--n", "2", "--field",
         "gf5", "--weight", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"weight": "1", "index": 2}
