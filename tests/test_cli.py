import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactloci.cli import main

from conftest import hand_built_cusp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_e1_cusp_m6_table(capsys):
    code, out, _ = run(capsys, "e1", "--poly", "x^2+y^3", "--m", "6")
    assert code == 0
    assert "Z^5" in out and "Z^7" in out
    assert "euler characteristic: -1" in out


def test_e1_json_structure(capsys):
    code, out, _ = run(capsys, "e1", "--poly", "x^2+y^3", "--m", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    ranks = {}
    for entry in data["page"]["entries"]:
        tot = entry["p"] + entry["q"]
        ranks[tot] = ranks.get(tot, 0) + entry["rank"]
    assert ranks == {14: 5, 15: 7, 16: 1}


def test_report_node_passes(capsys):
    code, out, _ = run(capsys, "report", "--poly", "x*y", "--m", "2", "--primes", "3,5,7")
    assert code == 0
    assert "H_c^5 = Z" in out and "H_c^6 = Z" in out
    assert "Lambda = 0" in out
    assert "q^3 - q^2" in out
    assert "verdict: PASS" in out


def test_report_json_verdict(capsys):
    code, out, _ = run(
        capsys, "report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7,11",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert data["lefschetz"] == 2
    assert data["oracle"]["counts"] == [[3, 54], [5, 250], [7, 686], [11, 2 * 11 ** 3]]
    assert data["euler_cross_check"]["passed"] is True


def test_validate_config_file(tmp_path, capsys):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(hand_built_cusp().to_json_dict()))
    code, out, _ = run(capsys, "validate", "--config", str(path))
    assert code == 0 and "valid" in out

    broken = hand_built_cusp().to_json_dict()
    broken["divisors"][0]["disc"] = 0
    path.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "validate", "--config", str(path))
    assert code == 1
    assert "disc" in out


def test_config_input_with_weights(tmp_path, capsys):
    data = hand_built_cusp().to_json_dict()
    data["weights"] = {"0": 4, "1": 6, "2": 11, "3": 0}
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "e1", "--config", str(path), "--m", "6", "--format", "json")
    assert code == 0
    page = json.loads(out)["page"]
    assert {(e["p"], e["q"]) for e in page["entries"]} == {(-12, 26), (-11, 26), (-11, 27)}


def test_weight_override_flag(capsys):
    code, out, _ = run(
        capsys, "e1", "--poly", "x^2+y^3", "--m", "6",
        "--weights", '{"0": 5, "1": 7, "2": 13, "3": 0}', "--format", "json",
    )
    assert code == 0
    page = json.loads(out)["page"]
    placements = {(e["p"], e["q"]) for e in page["entries"]}
    # columns move to -15, -14, -13 while the total degrees 14, 15, 16 stay
    assert placements == {(-15, 29), (-14, 28), (-13, 28), (-13, 29)}


def test_scale_flag_moves_columns(capsys):
    code, out, _ = run(
        capsys, "e1", "--poly", "x*y", "--m", "2", "--scale", "3", "--format", "json"
    )
    assert code == 0
    entries = json.loads(out)["page"]["entries"]
    assert {e["p"] for e in entries} == {-3}


def test_invalid_weight_override_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "e1", "--poly", "x^2+y^3", "--m", "6",
        "--weights", '{"0": 2, "1": 3, "2": 6, "3": 0}',
    )
    assert code == 2
    assert "ampleness" in err


@pytest.mark.parametrize(
    "weights,named",
    [
        ('{"0":"a"}', "'a'"),
        ("[1]", "list"),
        ('{"x":4}', "'x'"),
        ('{"0":1.5}', "1.5"),
        ('{"0":2,"00":4,"1":6,"2":11,"3":0}', "divisor 0 twice"),
    ],
)
def test_malformed_weights_are_usage_errors(tmp_path, capsys, weights, named):
    code, out, err = run(capsys, "e1", "--poly", "x^2+y^3", "--m", "6", "--weights", weights)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    data = hand_built_cusp().to_json_dict()
    data["weights"] = json.loads(weights)
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "e1", "--config", str(path), "--m", "6")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("option", ["--weights", "--config", "--poly-json"])
def test_repeated_json_keys_are_usage_errors(tmp_path, monkeypatch, capsys, option):
    monkeypatch.chdir(tmp_path)
    cusp = json.dumps(hand_built_cusp().to_json_dict())
    text, key = {
        "--weights": ('{"0": 99, "0": 4, "1": 6, "2": 11, "3": 0}', "0"),
        # a divisor's object, inside the document
        "--config": (cusp.replace('"label": "E1"', '"label": "E1", "label": "E9"', 1), "label"),
        "--poly-json": ('{"nvars": 2, "terms": [[[2, 0], "1"], [[0, 3], "1"]], "nvars": 2}', "nvars"),
    }[option]
    if option == "--weights":
        source, argv = option, ["--poly", "x^2+y^3", option, text]
    else:
        (tmp_path / "input.json").write_text(text)
        source, argv = "input.json", [option, "input.json"]
    code, out, err = run(capsys, "e1", *argv, "--m", "2")
    assert (code, out) == (2, "")
    assert err == f"error: {source}: a JSON object names the key {key!r} twice\n"


@pytest.mark.parametrize("option", ["--weights", "--config", "--poly-json"])
def test_unparsable_json_names_its_source(tmp_path, monkeypatch, capsys, option):
    monkeypatch.chdir(tmp_path)
    name = "Expecting property name enclosed in double quotes"
    text, reason = {
        "--weights": ("{bad", f"{name}: line 1 column 2 (char 1)"),
        "--config": ('{"ambient_dim": 2,', f"{name}: line 1 column 19 (char 18)"),
        "--poly-json": ("", "Expecting value: line 1 column 1 (char 0)"),
    }[option]
    if option == "--weights":
        source, argv = option, ["--poly", "x^2+y^3", option, text]
    else:
        (tmp_path / "input.json").write_text(text)
        source, argv = "input.json", [option, "input.json"]
    code, out, err = run(capsys, "e1", *argv, "--m", "2")
    assert (code, out) == (2, "")
    assert err == f"error: {source}: {reason}\n"


def test_weights_cli_with_separation(capsys):
    code, out, _ = run(
        capsys, "weights", "--poly", "x^2+y^3", "--m", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    # the separated configuration has one more exceptional divisor
    assert len(data["weights"]) == 5
    assert "ampleness" in data["note"]


@pytest.mark.parametrize("m", [[], ["--m", "7"]])
@pytest.mark.parametrize(
    "weights", ['{"0":5,"1":0}', '{"0":0,"1":7}', '{"0":4,"1":6,"2":11,"3":0,"99":1}']
)
def test_weights_cli_checks_every_weight_choice(tmp_path, capsys, m, weights):
    code, out, err = run(capsys, "weights", "--poly", "x^2+y^3", "--weights", weights, *m)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1

    data = hand_built_cusp().to_json_dict()
    data["weights"] = json.loads(weights)
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "weights", "--config", str(path), *m)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_weights_cli_prints_a_valid_override_as_given(capsys):
    weights = {"0": 5, "1": 7, "2": 13, "3": 0}
    code, out, _ = run(
        capsys, "weights", "--poly", "x^2+y^3", "--weights", json.dumps(weights), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["weights"] == weights
    code, out, _ = run(capsys, "weights", "--poly", "x^2+y^3", "--weights", json.dumps(weights), "--scale", "2")
    assert code == 0
    assert out.splitlines()[:4] == ["w[E1] = 10", "w[E2] = 14", "w[E3] = 26", "w[D1] = 0"]


def test_report_validates_each_configuration_once(capsys, monkeypatch):
    from contactloci import model

    scanned, original = [], model.validate_configuration

    def counting(cfg):
        scanned.append(len(cfg.divisors))
        return original(cfg)

    monkeypatch.setattr(model, "validate_configuration", counting)
    code, out, _ = run(capsys, "report", "--poly", "x^2+y^3", "--m", "96", "--format", "json")
    assert code == 0
    data = json.loads(out)
    # once for the resolution, once for its separation at m
    assert scanned == [4, len(data["configuration"]["divisors"])]


def test_report_builds_the_page_once(capsys, monkeypatch):
    from contactloci import cli, lefschetz

    built = []

    def counting(*args, **kwargs):
        built.append(args[2])
        return e1_page(*args, **kwargs)

    e1_page = cli.e1_page
    monkeypatch.setattr(cli, "e1_page", counting)
    monkeypatch.setattr(lefschetz, "e1_page", counting)
    code, _, _ = run(capsys, "report", "--poly", "x^2+y^3", "--m", "6", "--format", "json")
    assert code == 0 and built == [6]


def test_report_reads_a_piped_germ_once(tmp_path, capsys):
    # a pipe gives its contents once, so the oracle must count the germ
    # the pipeline already read rather than open --poly-json again
    germ = '{"nvars": 2, "terms": [[[2,0],"1"],[[0,3],"1"]]}'
    path = tmp_path / "cusp.json"
    path.write_text(germ)
    tail = ["--m", "2", "--primes", "3,5,7", "--format", "json"]
    read, write = os.pipe()
    os.write(write, germ.encode())
    os.close(write)
    try:
        piped = run(capsys, "report", "--poly-json", f"/dev/fd/{read}", *tail)
    finally:
        os.close(read)
    assert piped[0] == 0 and json.loads(piped[1])["verdict"] == "PASS"
    assert piped == run(capsys, "report", "--poly-json", str(path), *tail)


@pytest.mark.parametrize(
    "poly,m,primes", [("x^2+y^127", 6, ["--primes", "3,5,7"]), ("x^64+y^65", 64, [])]
)
def test_report_passes_on_germs_with_long_resolutions(capsys, poly, m, primes):
    code, out, _ = run(capsys, "report", "--poly", poly, "--m", str(m), *primes, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    if primes:
        assert data["oracle"]["chi_match"] is True


def test_report_on_config_input(tmp_path, capsys):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(hand_built_cusp().to_json_dict()))
    code, out, _ = run(capsys, "report", "--config", str(path), "--m", "2")
    assert code == 0
    assert "verdict: PASS" in out and "H_c^6 = Z^2" in out


def test_report_prints_torsion_as_hc_does(tmp_path, capsys):
    # one supplied stratum whose cover has H_1 = Z/3: a torsion-only degree
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "sigma": "origin",
        "divisors": [{
            "id": 0, "label": "E", "mult": 2, "disc": 2, "exceptional": True,
            "over_sigma": True, "genus": 0, "self_int": -1, "euler_open": 2,
            "cover_betti": [2, 0, 2], "cover_torsion": [[], [3]],
        }],
        "cells": [],
    }))
    outputs = {}
    for command in ("report", "hc"):
        code, outputs[command], _ = run(capsys, command, "--config", str(path), "--m", "2")
        assert code == 0
    report, hc_block = outputs["report"].splitlines(), outputs["hc"].splitlines()
    assert "H_c^5 = Z/3 (graded)" in report
    # the whole H_c block of hc: every degree, euler characteristic, degeneration
    start = report.index(hc_block[0])
    assert report[start:start + len(hc_block)] == hc_block


@pytest.mark.parametrize(
    "poly,m,pool",
    [("x*y", 2, ["--primes", "3,5,7"]), ("x^2+y^3", 3, ["--congruence", "1,3"])],
)
def test_report_and_oracle_chi_share_the_oracle_fit(capsys, poly, m, pool):
    head = ["--poly", poly, "--m", str(m), *pool, "--format", "json"]
    _, out, _ = run(capsys, "report", *head)
    oracle = json.loads(out)["oracle"]
    _, out, _ = run(
        capsys, "oracle-chi", *head, "--expected-dim", str(oracle["expected_dim"])
    )
    chi = json.loads(out)
    assert chi["counts"] == oracle["counts"] and chi["fit"] == oracle["fit"]
    assert chi["degree_match"] == oracle["degree_match"]


def test_check_euler_cli(capsys):
    code, out, _ = run(capsys, "check-euler", "--poly", "x^2+y^3", "--m", "6")
    assert code == 0 and "PASS" in out


def test_lefschetz_cli(capsys):
    code, out, _ = run(capsys, "lefschetz", "--poly", "x^2+y^3", "--m", "6")
    assert code == 0 and "= -1" in out


def test_separate_cli(capsys):
    code, out, _ = run(
        capsys, "separate", "--poly", "x^2+y^3", "--m", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["subdivisions"]) == 1
    assert data["subdivisions"][0]["mult"] == 7


def test_oracle_count_cli(capsys):
    code, out, _ = run(
        capsys, "oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--level", "2"
    )
    assert code == 0 and "count = 18" in out


@pytest.mark.parametrize("level", [20, 22])
def test_oracle_count_of_the_node_has_a_closed_form(capsys, level):
    # x*y = t^m mod t^(m+1) needs ord x + ord y = m and leading coefficients
    # with product 1: (q - 1) q^(2l - m) jets in each of the m - 1 strata
    m, q = 20, 3
    code, out, _ = run(
        capsys, "oracle-count", "--poly", "x*y", "--m", str(m), "--q", str(q), "--level", str(level),
        "--strata", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    cell = (q - 1) * q ** (2 * level - m)
    assert data["total"] == (m - 1) * cell
    assert data["strata"] == [[[i, m - i], cell] for i in range(1, m)]


@pytest.mark.parametrize(
    "poly,rendered",
    [("a*b*c*d", "x*y*z*w"), ("a*b*c*d*e", "x1*x2*x3*x4*x5"), ("a^2*b + c*d*e*f", "x1^2*x2 + x3*x4*x5*x6")],
)
def test_oracle_count_names_every_variable(capsys, poly, rendered):
    code, out, _ = run(capsys, "oracle-count", "--poly", poly, "--m", "5", "--q", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["poly"] == rendered


def test_oracle_chi_congruence_pool(capsys):
    code, out, _ = run(
        capsys, "oracle-chi", "--poly", "x^2+y^3", "--m", "3", "--level", "3",
        "--congruence", "1,3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert [q for q, _ in data["counts"]] == [7, 13]
    assert data["fit"]["chi"] == 3


def test_verify_fibration_cli(capsys):
    code, out, _ = run(capsys, "verify-fibration", "--m", "2", "--level", "2", "--q", "3")
    assert code == 0 and "PASS" in out


def test_verify_fibration_refuses_a_huge_source_at_once(capsys):
    # the source count has about 4.5 M digits; the cap is checked on its exponent
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-fibration", "--m", "1", "--level", "100", "--q", "13", "--d", "4000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 200, err[:200]
    assert err == "error: 13^403998 * 12 source jets exceed the cap 1000000000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle-count", "--poly", "x*y", "--m", "2"),
        ("oracle-count", "--poly", "x^2+y^3", "--m", "1"),
        ("verify-fibration", "--m", "1", "--level", "1"),
    ],
)
def test_a_q_above_the_cap_is_refused_before_any_primality_test(capsys, argv):
    # 2^61 - 1 is prime; trial division up to its square root would run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--q", "2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: enumeration budget exceeded (q = 2305843009213693951 > the cap 1000000000)\n"
    code, out, err = run(capsys, *argv, "--q", "4")
    assert code == 2 and out == "" and err == "error: 4 is not prime\n"


def test_level_option_accepts_a_prefix(capsys):
    # argparse takes a unique prefix of an option, so --l still means --level
    code, out, _ = run(capsys, "verify-fibration", "--m", "2", "--l", "2", "--q", "3")
    assert code == 0 and "PASS" in out


def test_mclean_cli(capsys):
    code, out, _ = run(
        capsys, "mclean", "--poly", "x^2+y^3", "--m", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    entries = data["page"]["entries"]
    assert [(e["p"] + e["q"], e["rank"]) for e in entries] == [(-3, 2)]


def test_power_config_e1(tmp_path, capsys):
    from contactloci.curves import point_configuration

    path = tmp_path / "x3.json"
    path.write_text(json.dumps(point_configuration(3).to_json_dict()))
    code, out, _ = run(capsys, "e1", "--config", str(path), "--m", "5")
    assert code == 0 and "empty page" in out
    code, out, _ = run(capsys, "e1", "--config", str(path), "--m", "6", "--format", "json")
    data = json.loads(out)
    assert data["page"]["entries"] == [
        {"p": 0, "q": 8, "rank": 3, "torsion": [], "contributors": [[0, 0]]}
    ]


def test_oracle_chi_inconclusive_exits_1(capsys):
    # the default pool mixes congruence classes for the cusp at m = 3
    code, out, _ = run(capsys, "oracle-chi", "--poly", "x^2+y^3", "--m", "3")
    assert code == 1
    assert "inconclusive" in out


def test_oracle_chi_expected_dim_mismatch_exits_1(capsys):
    argv = ["oracle-chi", "--poly", "x*y", "--m", "2", "--primes", "3,5,7", "--expected-dim"]
    code, out, _ = run(capsys, *argv, "3")
    assert code == 0 and "chi estimate at q=1: 0" in out
    code, out, _ = run(capsys, *argv, "2")
    assert code == 1 and out.splitlines()[-1] == "fitted degree 3 differs from expected dimension 2"
    code, out, _ = run(capsys, *argv, "2", "--format", "json")
    data = json.loads(out)
    assert code == 1 and (data["expected_dim"], data["degree_match"]) == (2, False)
    # all counts zero: the locus is empty and has no dimension
    code, out, _ = run(capsys, "oracle-chi", "--poly", "x^2+y^3", "--m", "1", "--expected-dim", "0")
    assert code == 1 and out.splitlines()[-1] == "all counts zero"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-3"])
    assert exc.value.code == 2
    assert "expected a nonnegative integer, got '-3'" in capsys.readouterr().err


def test_report_fails_on_inconclusive_oracle(capsys):
    code, out, _ = run(
        capsys, "report", "--poly", "x^2+y^3", "--m", "3", "--primes", "3,5,7,11,13"
    )
    assert code == 1
    assert "verdict: FAIL" in out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["e1", "--poly", "x^2+y^3"])  # missing --m
    assert exc.value.code == 2
    code, _, err = run(capsys, "e1", "--poly", "x^2+", "--m", "2")
    assert code == 2 and "error" in err


def test_poly_json_input(tmp_path, capsys):
    from contactloci.polys import parse_polynomial

    poly, _ = parse_polynomial("x^2 + y^3")
    path = tmp_path / "cusp_poly.json"
    path.write_text(json.dumps(poly.to_json_dict()))
    code, out, _ = run(capsys, "e1", "--poly-json", str(path), "--m", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["euler"] == 2


def test_oracle_chi_csv_export(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys, "oracle-chi", "--poly", "x*y", "--m", "2", "--level", "2",
        "--primes", "3,5,7", "--csv", str(target),
    )
    assert code == 0
    assert target.read_text().splitlines()[0] == "q,count"


def test_exceeded_node_cap_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "oracle-count", "--poly", "x^2+y^3", "--m", "3", "--q", "13", "--node-cap", "5"
    )
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err


def test_node_cap_passes_a_count_in_closed_form(capsys):
    # x*y's h0 is one term at every level, so the count lists only the
    # singular origin, at e = 3 and at e = 1: 2 nodes, where a scan of the
    # first level would take 1 + 1009 + 1 residues per lift
    code, out, _ = run(
        capsys, "oracle-count", "--poly", "x*y", "--m", "5", "--q", "1009",
        "--node-cap", "1000000", "--format", "json",
    )
    assert code == 0 and json.loads(out)["nodes"] == 2


def _positive_options():
    """(command, option) for every --m, --q, --level, --scale and --node-cap option."""
    from contactloci.cli import build_parser

    subparsers = build_parser().commands
    return [
        (command, action.option_strings[0])
        for command, parser in sorted(subparsers.items())
        for action in parser._actions
        if action.option_strings[0] in ("--m", "--q", "--level", "--scale", "--node-cap")
    ]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command,option", _positive_options())
def test_nonpositive_integer_options_are_usage_errors(capsys, command, option, value):
    argv = [command, option, value]
    if command != "verify-fibration":
        argv += ["--poly", "x^2+y^3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert f"error: argument {option}" in captured.err.splitlines()[-1]
    assert "expected a positive integer" in captured.err


def test_report_on_an_empty_locus_passes(capsys):
    # at m = 1 the cusp's S_m is empty and every count is zero
    code, out, _ = run(
        capsys, "report", "--poly", "x^2+y^3", "--m", "1", "--primes", "3,5,7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "PASS"
    assert data["oracle"]["expected_dim"] is None and data["oracle"]["degree_match"] is True


@pytest.mark.parametrize(
    "poly,named",
    [
        ("(x^2+y^2)^2+x^5", "non-rational point cluster"),
        ("(x^2+y^2)*(x^2+y^2+x^3)", "non-rational point cluster"),
        ("x*y*z", "two variables"),
    ],
)
def test_unresolvable_germs_are_input_errors(capsys, poly, named):
    code, out, err = run(capsys, "resolve", "--poly", poly)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["resolve", "--poly", "(" * 260 + "x+y" + ")" * 260], "nests too deeply"),
        (["validate", "--config", "deep.json"], "nests too deeply"),
        (["oracle-count", "--poly", "x*y", "--m", "1000", "--q", "3"], "recursion limit"),
    ],
)
def test_deep_inputs_are_input_errors(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


# input files for the one-line errors below, by name
ERROR_INPUTS = {
    "cusp.json": hand_built_cusp().to_json_dict(),
    "fifth.json": {"nvars": 2, "terms": [[[2, 0], "1/5"], [[0, 3], "1"]]},
    "three.json": {"nvars": 2, "terms": [[[2, 0, 1], "1"]]},
    "negative.json": {"nvars": 2, "terms": [[[-1, 2], "1"]]},
    "twice.json": {"nvars": 2, "terms": [[[2, 0], "1"], [[0, 3], "1"], [[2, 0], "5"]]},
    "solid.json": {
        "ambient_dim": 3,
        "divisors": [{"id": 0, "label": "E", "mult": 2, "disc": 2}],
        "cells": [],
        "weights": {"0": 1},
    },
}


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["report", "--config", "cusp.json", "--m", "2", "--primes", "3,5"],
            "the jet oracle needs a polynomial input, not a configuration",
        ),
        (
            ["oracle-count", "--poly-json", "fifth.json", "--m", "2", "--q", "5"],
            "coefficient 1/5 has no reduction mod 5",
        ),
        (["oracle-chi", "--poly", "x^2+y^3", "--m", "3", "--primes", "5,5"], "duplicate sample primes"),
        (["resolve", "--poly", "(" * 3000 + "x+y" + ")" * 3000], "the polynomial nests too deeply"),
        (["resolve", "--poly-json", "three.json"], "exponent tuple (2, 0, 1) does not have 2 entries"),
        (["resolve", "--poly-json", "negative.json"], "negative exponent in (-1, 2)"),
        (["verify-fibration", "--m", "3", "--level", "2", "--q", "3"], "need l >= m >= 0"),
        (["e1", "--config", "solid.json", "--m", "2"], "divisor 0: supply cover_betti for ambient_dim >= 3"),
        (
            ["oracle-count", "--poly-json", "twice.json", "--m", "2", "--q", "5"],
            "polynomial: key 'terms' names the exponents [2, 0] twice",
        ),
    ],
)
def test_refusals_are_one_line_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, data in ERROR_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("config", ["cusp.json", "broken.json", "missing.json"])
@pytest.mark.parametrize("oracle", [["--primes", "3,5"], ["--congruence", "1,2"]])
def test_report_refuses_the_oracle_on_a_config_before_reading_it(tmp_path, monkeypatch, capsys, config, oracle):
    # the refusal reads only the command line, so a malformed or missing
    # config file given with an oracle option gets this error too
    from contactloci import cli

    def no_separation(*args):
        raise AssertionError("the pipeline ran before the refusal")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "cusp.json").write_text(json.dumps(hand_built_cusp().to_json_dict()))
    (tmp_path / "broken.json").write_text('{"ambient_dim": 2}')
    monkeypatch.setattr(cli, "separate", no_separation)
    code, out, err = run(capsys, "report", "--config", config, "--m", "400", *oracle)
    assert code == 2 and not out
    assert err == "error: the jet oracle needs a polynomial input, not a configuration\n"


def _validate_case(edit):
    data = hand_built_cusp().to_json_dict()
    edit(data, data["divisors"][0], data["cells"][0])
    return data


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c, d, x: c.update(ambient_dim=0), "ambient_dim must be >= 1"),
        (lambda c, d, x: c["divisors"][1].update(id=0), "duplicate id"),
        (lambda c, d, x: d.update(mult=0), "mult >= 1 required"),
        (lambda c, d, x: d.pop("genus"), "genus required in the curve case"),
        (lambda c, d, x: d.update(genus=-1), "genus must be nonnegative"),
        (lambda c, d, x: d.pop("self_int"), "exceptional curves need a self-intersection"),
        (lambda c, d, x: d.update(cover_betti=[2, -1]), "cover_betti must be nonempty and nonnegative"),
        (lambda c, d, x: x.update(ids=[2, 2]), "cell needs >= 2 distinct divisor ids"),
        (lambda c, d, x: x.update(ids=[0, 1, 2]), "curve-case cells are pairs"),
        (lambda c, d, x: x.update(count=0), "count must be positive"),
    ],
)
def test_validate_reports_each_issue(tmp_path, capsys, edit, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_validate_case(edit)))
    code, out, _ = run(capsys, "validate", "--config", str(path))
    assert code == 1
    assert message in out


def test_resolve_univariate_cli(capsys):
    code, out, _ = run(capsys, "resolve", "--poly", "x^3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["configuration"]["ambient_dim"] == 1
    assert data["configuration"]["divisors"][0]["mult"] == 3


@pytest.mark.parametrize("command", ["resolve", "separate", "report"])
def test_constant_germs_get_one_message(capsys, command):
    errors = set()
    for poly in ("5", "0", "x-x", "x^2-x^2+y-y"):
        extra = [] if command == "resolve" else ["--m", "2"]
        code, out, err = run(capsys, command, "--poly", poly, *extra)
        assert code == 2 and not out, poly
        assert err.startswith("error: ") and err.count("\n") == 1, (poly, err)
        errors.add(err)
    assert errors == {"error: a constant polynomial defines no germ at the origin\n"}


SYMPY_PROBE = """
import contextlib, io, json, sys
import contactloci.cli as cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()

seen = {"import": "sympy" in sys.modules}
run("report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7", "--format", "json")
run("oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata", "--format", "json")
seen["warm-up"] = "sympy" in sys.modules
for family in sys.argv[2:]:
    run("report", "--poly", family, "--m", "4", "--format", "json")
    seen[family] = "sympy" in sys.modules
resolved = json.loads(run("resolve", "--poly", sys.argv[1], "--format", "json"))
seen["decomposable"] = "sympy" in sys.modules
print(json.dumps({"seen": seen, "factors": [f["poly"] for f in resolved["factors"]]}))
"""

LADDER_FAMILIES = ("x^2+y^3", "x^2+y^5", "x*y", "x^3+y^4", "x^2*y+y^4", "(x^2-y^3)*(x^3-y^2)")
# decomposable polygons whose rests are certified irreducible by specialisation,
# the second after its unit content 1 - y is split off
CERTIFIED_RESTS = ("x^2 - 8*y^3 - 4*y^4 - 4*x^2*y", "x^3 + y^4 - y^5 - x^3*y")


def test_sympy_is_imported_only_for_a_decomposable_polygon():
    import os
    import subprocess
    import sys

    import contactloci

    src = os.path.dirname(os.path.dirname(contactloci.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # x y (x - y)(x + y)(1 + x): the rest x^2 - y^2 + x^3 - x y^2 has a
    # decomposable polygon and goes to sympy, which splits off the unit
    decomposable = "x^3*y-x*y^3+x^4*y-x^2*y^3"
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_PROBE, decomposable, *LADDER_FAMILIES, *CERTIFIED_RESTS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    expected = {key: False for key in ("import", "warm-up", *LADDER_FAMILIES, *CERTIFIED_RESTS)}
    assert result["seen"] == {**expected, "decomposable": True}
    assert result["factors"] == ["x", "y", "x - y", "x + y"]


WARM_UP_PROBE = """
import contextlib, io, json, sys
import contactloci.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7", "--format", "json"]) == 0
    assert cli.main(["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata", "--format", "json"]) == 0
print(json.dumps([name for name in ("dataclasses", "inspect", "csv", "logging") if name in sys.modules]))
"""


def test_the_bench_warm_up_loads_no_dataclasses_inspect_csv_or_logging():
    # the records are NamedTuples, so no class is generated at import; csv and
    # logging load only to write a CSV or a progress line
    import os
    import subprocess
    import sys

    import contactloci

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(contactloci.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", WARM_UP_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_a_closed_stdout_exits_as_sigpipe_would():
    import os
    import subprocess
    import sys

    import contactloci

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(contactloci.__file__)))
    argv = ["report", "--poly", "x^2+y^3", "--m", "60", "--format", "json"]  # about 190 KB of JSON
    proc = subprocess.Popen(
        [sys.executable, "-m", "contactloci", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--config", "/nonexistent/file.json")
    assert code == 2


def test_higher_dimensional_config_flow(tmp_path, capsys):
    # ambient_dim 3: bookkeeping only, with supplied chi, covers and weights
    config = {
        "ambient_dim": 3,
        "sigma": "origin",
        "divisors": [
            {
                "id": 0,
                "label": "E",
                "mult": 2,
                "disc": 3,
                "exceptional": True,
                "over_sigma": True,
                "euler_open": 2,
                "cover_betti": [2, 0, 2],
            },
            {
                "id": 1,
                "label": "F",
                "mult": 5,
                "disc": 1,
                "exceptional": False,
                "over_sigma": True,
                "euler_open": -1,
            },
        ],
        "cells": [{"ids": [0, 1], "count": 1, "over_sigma": True}],
        "weights": {"0": 1, "1": 0},
    }
    path = tmp_path / "threefold.json"
    path.write_text(json.dumps(config))

    code, out, _ = run(capsys, "validate", "--config", str(path))
    assert code == 0

    # m = 2: only E contributes; the pair multiplicity 7 separates m <= 6
    code, out, _ = run(capsys, "e1", "--config", str(path), "--m", "2", "--format", "json")
    assert code == 0
    entries = json.loads(out)["page"]["entries"]
    totals = {}
    for e in entries:
        totals[e["p"] + e["q"]] = totals.get(e["p"] + e["q"], 0) + e["rank"]
    # dim = 3 (m + 1) - k nu - 1 = 5: H_0 at 10, H_2 at 8
    assert totals == {8: 2, 10: 2}

    code, out, _ = run(capsys, "check-euler", "--config", str(path), "--m", "2")
    assert code == 0 and "PASS" in out

    # m = 10 would need separation, which is curve-only: a clean error
    code, out, err = run(capsys, "e1", "--config", str(path), "--m", "10")
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and "separat" in err


def test_line_configuration_is_separating_at_every_m(tmp_path, capsys):
    # a point on a line has no intersection cells: m-separating at every m
    line = {
        "ambient_dim": 1,
        "sigma": "origin",
        "divisors": [{"id": 0, "label": "origin", "mult": 3, "disc": 1, "over_sigma": True}],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(line))
    for m in (1, 2, 3, 7, 30):
        code, out, err = run(capsys, "e1", "--config", str(path), "--m", str(m), "--format", "json")
        assert code == 0 and not err, m
        assert json.loads(out)["page"]["m"] == m


def test_report_json_reads_back_as_a_config(tmp_path, capsys):
    code, out, _ = run(capsys, "report", "--poly", "x^2+y^3", "--m", "7", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["subdivisions"]  # m = 7 forces one separating blowup
    path = tmp_path / "cusp_m7.json"
    path.write_text(json.dumps({**report["configuration"], "weights": report["weights"]}))
    for command, key in (("e1", "page"), ("hc", "hc")):
        code, out, err = run(capsys, command, "--config", str(path), "--m", "7", "--format", "json")
        assert code == 0 and not err, command
        assert json.loads(out)[key] == report[key], command


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-chi", "--poly", "x^2+y^3", "--m", "3", "--level", "3", "--congruence", "a,b"],
        ["oracle-chi", "--poly", "x^2+y^3", "--m", "3", "--level", "3", "--congruence", "1"],
        ["oracle-chi", "--poly", "x^2+y^3", "--m", "3", "--level", "3", "--congruence", "1,0"],
        ["report", "--poly", "x^2+y^3", "--m", "3", "--primes", "3,a"],
        ["report", "--poly", "x^2+y^3", "--m", "3", "--congruence", "1,2,3"],
        ["report", "--poly", "x*y", "--m", "2", "--primes", "3,5,7", "--congruence", "1,4"],
        ["oracle-chi", "--poly", "x*y", "--m", "2", "--primes", "3,5,7", "--congruence", "1,4"],
    ],
)
def test_malformed_prime_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1].startswith(f"contactloci {argv[0]}: error: argument {argv[-2]}: ")


@pytest.mark.parametrize(
    "config,named",
    [
        ([1], "list"),
        ({"ambient_dim": 2, "divisors": [{"id": 0, "label": "E1", "disc": 2}]}, "'mult'"),
        ({"ambient_dim": 2, "divisors": [{"id": 0, "label": "E1", "mult": "2", "disc": 2}]}, "'mult'"),
        ({"ambient_dim": 2, "divisors": {}}, "'divisors'"),
        ({"ambient_dim": 2, "divisors": [], "cells": [{"ids": [0, "a"]}]}, "'ids'"),
    ],
)
def test_malformed_config_is_a_usage_error(tmp_path, capsys, config, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize(
    "poly,named",
    [
        ([1], "list"),
        ({"nvars": 2}, "'terms'"),
        ({"terms": []}, "'nvars'"),
        ({"nvars": "2", "terms": []}, "'nvars'"),
        ({"nvars": -1, "terms": []}, "'nvars'"),
        ({"nvars": 2, "terms": {}}, "'terms'"),
        ({"nvars": 2, "terms": [[[2, 0], "1"], [[0, 3]]]}, "'terms'"),
        ({"nvars": 2, "terms": [[[2, "0"], "1"]]}, "'terms'"),
        ({"nvars": 2, "terms": [[[2, 0], 1.5]]}, "'terms'"),
        ({"nvars": 2, "terms": [[[2, 0], "1/0"]]}, "'1/0'"),
        ({"nvars": 2, "terms": [[[2, 0], "a"]]}, "'a'"),
    ],
)
@pytest.mark.parametrize("command", ["oracle-count", "report"])
def test_malformed_poly_json_is_a_usage_error(tmp_path, capsys, poly, named, command):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    extra = ["--q", "5"] if command == "oracle-count" else ["--primes", "3,5"]
    code, out, err = run(capsys, command, "--poly-json", str(path), "--m", "2", *extra)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


_KINDS = [
    ("null", "null"),
    ("[1,2]", "a list"),
    ('"w"', "a string"),
    ("3", "an integer"),
    ("2.5", "a number"),
    ("true", "a boolean"),
]


@pytest.mark.parametrize("text,kind", _KINDS)
def test_weights_of_another_json_kind_are_named_by_it(capsys, text, kind):
    code, out, err = run(capsys, "e1", "--poly", "x^2+y^3", "--m", "2", "--weights", text)
    assert code == 2 and not out
    assert err == f"error: weights must be a JSON object, not {kind}\n"


@pytest.mark.parametrize("text,kind", _KINDS)
def test_a_configuration_of_another_json_kind_is_named_by_it(tmp_path, capsys, text, kind):
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert code == 2 and not out
    assert err == f"error: configuration must be a JSON object, not {kind}\n"


def test_file_weights_of_another_json_kind_are_named_by_it(tmp_path, capsys):
    data = hand_built_cusp().to_json_dict()
    data["weights"] = [4, 6, 11, 0]
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "e1", "--config", str(path), "--m", "2")
    assert code == 2 and not out
    assert err == "error: weights must be a JSON object, not a list\n"


def test_poly_whitespace_at_either_end_and_a_short_poly(capsys):
    for text in ("x^2+y^3 ", " x^2+y^3"):
        code, out, _ = run(capsys, "report", "--poly", text, "--m", "2")
        assert code == 0 and "verdict: PASS" in out
    for text in ("x^2+y^3+", "-", "x*"):
        code, out, err = run(capsys, "report", "--poly", text, "--m", "2")
        assert (code, out, err) == (2, "", "error: unexpected end of input\n")


def test_exact_counts_are_printed_in_full(capsys):
    # (q - 1) q^(2 (l - 1)) has about 14 000 digits, past the default
    # limit of 4300 on int-to-str conversion
    code, out, _ = run(
        capsys, "oracle-count", "--poly", "x*y", "--m", "2", "--q", "5", "--level", "10000",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["total"] == 4 * 5 ** (2 * 9999)


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    from contactloci import cli
    from contactloci.polys import parse_polynomial

    path = tmp_path / "cusp_poly.json"
    path.write_text(json.dumps(parse_polynomial("x^2 + y^3")[0].to_json_dict()))
    calls = [
        ["e1", "--poly", "x^2+y^3"],  # usage error: no --m
        ["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7", "--level", "3",
         "--format", "json"],
        ["report", "--poly-json", str(path), "--m", "2", "--format", "json"],
        ["report", "--poly", "x*y", "--poly-json", str(path), "--m", "2"],  # usage error
        ["oracle-chi", "--poly-json", str(path), "--m", "2", "--level", "2", "--primes", "3,5,7"],
        ["oracle-chi", "--poly", "x*y", "--m", "2"],
        ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "5", "--level", "3", "--strata"],
        ["oracle-count", "--poly-json", str(path), "--m", "2", "--q", "5"],
        ["weights", "--poly", "x^2+y^3", "--m", "3", "--scale", "2"],
        ["weights", "--poly-json", str(path)],
    ]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [call(argv) for argv in calls]  # one parser for all calls
    assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0, 0, 0, 0, 0, 0]
    assert json.loads(shared[1][1])["oracle"]["level"] == 3
    assert json.loads(shared[2][1])["oracle"] is None
    assert "q=11" in shared[5][1] and "level=2" in shared[7][1]
    fresh = []
    for argv in reversed(calls):  # a new parser for each call, in the other order
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert fresh[::-1] == shared
    for argv in calls[1:3] + calls[4:]:
        fresh = cli.build_parser.__wrapped__().parse_args(argv)
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh)


def _counting(calls: dict, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return counted


def test_a_germ_reported_at_many_m_is_parsed_and_resolved_once(capsys, monkeypatch):
    from contactloci import cli

    germ = "(x^2-y^3)*(x^3-y^2)"
    argvs = [
        ["report", "--poly", germ, "--m", str(m), "--format", form]
        for m in range(1, 9)
        for form in ("json", "table")
    ]
    cold = []
    for argv in argvs:
        cli._parsed.cache_clear()
        cli._resolved.cache_clear()
        cold.append(run(capsys, *argv))
    cli._parsed.cache_clear()
    cli._resolved.cache_clear()
    calls = {}
    monkeypatch.setattr(cli, "parse_polynomial", _counting(calls, "parse", cli.parse_polynomial))
    monkeypatch.setattr(cli, "resolve_plane_curve", _counting(calls, "resolve", cli.resolve_plane_curve))
    warm = [run(capsys, *argv) for argv in argvs]
    assert warm == cold
    assert [code for code, _, _ in warm] == [0] * 16
    assert calls == {"parse": 1, "resolve": 1}


def test_a_refused_germ_is_refused_again(capsys, monkeypatch):
    from contactloci import cli

    calls = {}
    monkeypatch.setattr(cli, "resolve_plane_curve", _counting(calls, "resolve", cli.resolve_plane_curve))
    argv = ["report", "--poly", "(x^2+y^2)^2+x^5", "--m", "4"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 2
    assert "non-rational point cluster" in first[2]
    assert calls == {"resolve": 2}  # a call that raises leaves nothing cached


def test_a_rewritten_poly_json_is_read_again(tmp_path, capsys):
    from contactloci.polys import parse_polynomial

    germs = ("x^2+y^3", "x^2+y^5")
    path = tmp_path / "germ.json"
    from_file = []
    for germ in germs:
        path.write_text(json.dumps(parse_polynomial(germ)[0].to_json_dict()))
        from_file.append(run(capsys, "report", "--poly-json", str(path), "--m", "10", "--format", "json"))
    from_text = [run(capsys, "report", "--poly", germ, "--m", "10", "--format", "json") for germ in germs]
    assert from_file == from_text and from_file[0] != from_file[1]
    assert [code for code, _, _ in from_file] == [0, 0]


# ---------------------------------------------------------------------------
# fuzzed command lines: usage errors exit 2, checks exit 1, nothing raises

_FUZZ_POLYS = ("x^2+y^3", "x*y", "x^2+y^2", "x^3", "x^2*y + y^4")
_FUZZ_BAD_POLYS = ("x+1", "0", "x*y*z", "x^2+", "(x", "x^-1", "")
_FUZZ_KEYS = (
    "nvars", "terms", "ambient_dim", "divisors", "cells", "sigma", "weights", "id", "label",
    "mult", "disc", "exceptional", "over_sigma", "genus", "self_int", "ids", "count", "0", "3",
)
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from(["", "1/2", "a", "E1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=4),
    max_leaves=10,
)


def _one_in(data, n):
    """True about once in n draws (a middle value: hypothesis favours the ends)."""
    return data.draw(st.integers(0, n - 1)) == n // 2


def _fuzz_document(data, option):
    """A JSON document for ``--config`` or ``--poly-json``: mostly well formed."""
    from contactloci.polys import parse_polynomial

    if _one_in(data, 4):
        return data.draw(_FUZZ_JSON)
    if option == "--config":
        cusp = hand_built_cusp().to_json_dict()
        return data.draw(st.sampled_from([
            cusp,
            dict(cusp, weights={"0": 1, "1": 1, "2": 1}),
            dict(cusp, divisors=cusp["divisors"][:3]),  # a cell meets a missing divisor
        ]))
    text = data.draw(st.sampled_from(_FUZZ_POLYS))
    return parse_polynomial(text)[0].to_json_dict()


def _fuzz_value(data, option, folder):
    """A value for ``option``: mostly plausible, sometimes malformed."""
    malformed = _one_in(data, 20)
    if option == "--poly":
        return data.draw(st.sampled_from(_FUZZ_BAD_POLYS if malformed else _FUZZ_POLYS))
    if option in ("--poly-json", "--config"):
        if malformed:
            return str(folder / "missing.json")
        path = folder / f"{option[2:]}.json"
        path.write_text(json.dumps(_fuzz_document(data, option)))
        return str(path)
    if option == "--weights":
        return json.dumps(data.draw(_FUZZ_JSON))
    if option == "--format":
        return "yaml" if malformed else data.draw(st.sampled_from(["table", "json"]))
    if malformed:
        return data.draw(st.sampled_from(["a", "1.5", "", "-1", "0", "40", "3,a", "1,", ","]))
    if option == "--primes":
        primes = st.lists(st.sampled_from([2, 3, 4, 5, 7, 11, 13]), min_size=1, max_size=4)
        return ",".join(map(str, data.draw(primes)))
    if option == "--congruence":
        return f"{data.draw(st.integers(-1, 5))},{data.draw(st.integers(1, 6))}"
    if option == "--q":
        return str(data.draw(st.sampled_from([2, 3, 5, 7])))
    top = 30000 if option == "--node-cap" else 5
    return str(data.draw(st.integers(1, top)))


# the commands with a check: (failed in the JSON output, failed in the table output)
_FAILED_CHECK = {
    "validate": (lambda d: d["valid"] is False, lambda t: t != "valid"),
    "check-euler": (lambda d: d["passed"] is False, lambda t: t.endswith("FAIL")),
    "verify-fibration": (lambda d: d["passed"] is False, lambda t: t.endswith("FAIL")),
    "oracle-chi": (
        lambda d: d["fit"]["conclusive"] is False or d.get("degree_match") is False,
        lambda t: "chi estimate at q=1" not in t,
    ),
    "report": (lambda d: d["verdict"] == "FAIL", lambda t: "verdict: FAIL" in t),
}


def _fuzz_argv(data, command, parser, folder):
    """Usually one option of the input group, the required options usually,
    the others at times, in any order; now and then a stray token."""
    inputs = next((g._group_actions for g in parser._mutually_exclusive_groups if g.required), [])
    chosen = []
    if inputs:
        count = 2 if _one_in(data, 20) else 1
        chosen = data.draw(st.lists(st.sampled_from(inputs), min_size=count, max_size=count, unique=True))
    for action in parser._actions:
        if action.option_strings and action.dest not in ("help", "csv") and action not in inputs:
            if action.required != _one_in(data, 20 if action.required else 4):
                chosen.append(action)
    argv = [command]
    for action in data.draw(st.permutations(chosen)):
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(_fuzz_value(data, action.option_strings[0], folder))
    if _one_in(data, 20):
        argv.append(data.draw(st.sampled_from(["--m", "junk", "--poly", "-1"])))
    return argv


def test_fuzzed_command_lines_exit_cleanly(tmp_path, monkeypatch):
    import contextlib
    import io
    from collections import Counter

    from contactloci.cli import _quick_args, build_parser

    monkeypatch.setattr("contactloci.jets.DEFAULT_NODE_CAP", 20000)
    subparsers = build_parser().commands
    codes = Counter()
    quick = []  # the command lines _quick_args parses
    for command in sorted(subparsers):  # --csv is left out: it writes a file

        @settings(max_examples=12, deadline=None, derandomize=True, database=None)
        @given(data=st.data())
        def fuzz(data):
            argv = _fuzz_argv(data, command, subparsers[command], tmp_path)
            args = _quick_args(subparsers[command], argv[1:])
            if args is not None:  # it parses as argparse does, with no extras
                full, extras = subparsers[command].parse_known_args(argv[1:])
                assert (vars(args), extras) == (vars(full), []), argv
                quick.append(argv)
            out, err = io.StringIO(), io.StringIO()
            # any exception but SystemExit propagates and fails the test
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), argv
            if code == 1:  # only a check's verdict
                json_failed, table_failed = _FAILED_CHECK[command]
                text = out.getvalue().strip()
                as_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
                assert not err.getvalue(), argv
                assert json_failed(json.loads(text)) if as_json else table_failed(text), argv
            if code == 2:  # one line from the program, or argparse's usage and error
                lines = err.getvalue().splitlines()
                assert not out.getvalue() and lines, argv
                if lines[0].startswith("error: "):
                    assert len(lines) == 1, argv
                else:
                    assert ": error: " in lines[-1], argv
            codes[code] += 1

        fuzz()
    assert min(codes[0], codes[2]) >= 40  # the pipeline runs, not only the parser
    assert 40 <= len(quick) < sum(codes.values())  # both parsers are met


def test_running_out_of_memory_is_an_input_error(capsys, monkeypatch):
    # x^1000000000000+y^2 does this in the resolver's dense columns
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr("contactloci.cli.resolve_plane_curve", exhausted)
    code, out, err = run(capsys, "resolve", "--poly", "x^2+y^3")
    assert (code, out, err) == (2, "", "error: out of memory\n")


QUICK_ARGVS = [
    # one valid command line per subcommand
    ["validate", "--config", "c.json", "--format", "json"],
    ["resolve", "--poly", "x^2+y^3"],
    ["separate", "--poly-json", "p.json", "--m", "3"],
    ["weights", "--poly", "x*y", "--m", "2", "--scale", "2"],
    ["e1", "--poly=x^2+y^3", "--m", "6"],
    ["hc", "--poly", "x^2+y^3", "--m", "6", "--gap-analysis"],
    ["mclean", "--poly", "x*y", "--m", "2", "--weights", '{"0": 1}'],
    ["check-euler", "--config", "c.json", "--m", "2"],
    ["zeta", "--poly", "x^2+y^3"],
    ["lefschetz", "--poly", "x*y", "--m", "4"],
    ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata", "--node-cap", "9"],
    ["oracle-chi", "--poly", "x*y", "--m", "2", "--congruence", "1,4", "--expected-dim", "1"],
    ["verify-fibration", "--m", "2", "--level", "3", "--q", "3", "--d", "3"],
    ["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7"],
    # more forms that cli._quick_args parses
    ["report", "--poly=-x^2+y^3", "--m", "2", "--format", "json"],
    ["oracle-chi", "--poly", "x*y", "--m", "2", "--congruence=-1,4", "--expected-dim", "0"],
    ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata"],
    ["verify-fibration", "--m", "2", "--level", "3", "--q", "3", "--d", "3", "--nu", "3"],
    ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--node-cap", "9"],
    ["resolve", "--poly", ""],
]
DISPATCH_ARGVS = QUICK_ARGVS + [
    # left to argparse, which accepts or refuses them
    ["report", "--poly", "x^2+y^3", "--m", "2", "--primes", "3,5,7", "--lev", "2"],
    ["report", "--poly", "x*y", "--m", "2", "--m", "3"],  # argparse keeps the last
    ["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata=1"],
    ["report", "--poly", "-x^2+y^3", "--m", "2"],
    ["report", "--poly", "x*y", "--m", "2", "--format", "yaml"],
    ["report", "--poly", "x*y", "--m=0"],
    ["report", "--poly", "x*y", "--m", "2", "--primes", "3,,5"],
    ["report", "--poly", "x*y", "--config", "c.json", "--m", "2"],
    # refused after the command
    ["report", "--poly", "x*y", "--m", "2", "--bogus"],
    ["report", "--poly", "x*y", "--m", "2", "stray", "--bogus=1"],
    ["report", "--poly", "x*y"],
    ["report", "--poly", "x*y", "--m", "0"],
    ["oracle-count", "--config", "c.json", "--m", "1", "--q", "3"],
    # help, and command lines that do not start with a command
    ["report", "-h"],
    ["--help"],
    [],
    ["frobnicate", "--m", "2"],
    ["--format", "json", "report", "--poly", "x*y", "--m", "2"],
    ["--", "report", "--poly", "x*y", "--m", "2"],
    ["report", "--", "--poly", "x*y", "--m", "2"],
    ["report", "--poly", "x*y", "--m", "2", "--", "--format", "json"],
]


# the shapes of the benchmark's command lines (bench/jobs.py)
BENCHMARK_ARGVS = [
    ["report", "--poly=x^2+y^3", "--m", "6", "--format", "json"],
    ["report", "--poly=x^2+y^3", "--m", "2", "--primes", "3,5,7", "--format", "json"],
    ["oracle-count", "--poly=x^2+y^3", "--m", "2", "--q", "5", "--strata", "--format", "json"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGVS)
def test_benchmark_command_lines_skip_argparse(capsys, monkeypatch, argv):
    from contactloci.cli import build_parser

    def refuse(*_):
        raise AssertionError("parsed by argparse")

    for parser in build_parser().commands.values():
        monkeypatch.setattr(parser, "parse_known_args", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv", DISPATCH_ARGVS)
def test_main_parses_as_the_full_parser_does(capsys, argv):
    from contactloci.cli import _quick_args, build_parser

    parsed = []

    def record(args):
        parsed.append(vars(args))
        return {}, "{}", 0  # prints as {} in either format

    def parse_and_print():
        _, table, code = record(build_parser().parse_args(argv))
        print(table)
        return code

    def outcome(parse):
        try:
            code = parse()
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    commands = build_parser().commands
    command = commands.get(argv[0]) if argv else None
    assert (command is not None and _quick_args(command, argv[1:]) is not None) == (argv in QUICK_ARGVS)
    funcs = {name: p.get_default("func") for name, p in commands.items()}
    try:
        for p in commands.values():
            p.set_defaults(func=record)
        direct = outcome(parse_and_print)
        assert outcome(lambda: main(argv)) == direct
    finally:
        for name, p in commands.items():
            p.set_defaults(func=funcs[name])
    assert len(parsed) in (0, 2) and parsed[:1] == parsed[1:]
