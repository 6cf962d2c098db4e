"""Command-line interface: output formats, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import nrooted.cli
import nrooted.qft
import nrooted.relations
import nrooted.ribbon
import nrooted.tables
import nrooted.wick
from nrooted.cli import main
from nrooted.errors import ConsistencyError
from nrooted.relations import VerificationReport
from nrooted.series import Series

EXAMPLE_MAP_JSON = {
    "half_edges": 12,
    "alpha": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]],
    "sigma": [[1], [2, 7, 3, 9], [4, 6, 5], [11, 10, 8, 12]],
    "roots": [1, 2, 11],
}

# Labels that ``int()`` reads as a ket number but that are not written "ketK".
NON_CANONICAL_KETS = ["ket01", "ket+1", "ket 1", "ket1 ", "ket\u0661", "ket1_0"]


#: ``verify --suite bijection`` stdout, byte for byte.
BIJECTION_SUITE_STDOUT = (
    '[\n'
    '  {\n'
    '    "identity": "oracle-agreement-n1-e0",\n'
    '    "order_checked": 0,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "oracle-agreement-n1-e1",\n'
    '    "order_checked": 2,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "oracle-agreement-n1-e2",\n'
    '    "order_checked": 4,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "oracle-agreement-n2-e1",\n'
    '    "order_checked": 2,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "oracle-agreement-n2-e2",\n'
    '    "order_checked": 4,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "oracle-agreement-n3-e2",\n'
    '    "order_checked": 4,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "oracle-agreement-n1-e3",\n'
    '    "order_checked": 6,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "fiber-size-n1-e1",\n'
    '    "order_checked": 2,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "fiber-size-n1-e2",\n'
    '    "order_checked": 4,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  },\n'
    '  {\n'
    '    "identity": "fiber-size-n2-e1",\n'
    '    "order_checked": 2,\n'
    '    "pass": true,\n'
    '    "first_failure_power": null\n'
    '  }\n'
    ']\n'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeriesCommand:
    def test_csv_output_bytes(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "z", "--n", "0", "--order", "6",
            "--format", "csv",
        )
        assert code == 0
        assert out == "0,1\n2,1\n4,3\n6,15\n"

    def test_text_output_first_moment(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "m", "--n", "1")
        assert code == 0
        assert out == (
            "1 + 2*λ^2 + 10*λ^4 + 74*λ^6 + 706*λ^8 + 8162*λ^10 + 110410*λ^12\n"
        )

    def test_text_output_odd_weight_family(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "znp", "--n", "1", "--p", "1",
            "--order", "5",
        )
        assert code == 0
        assert out == "2*λ + 12*λ^3 + 90*λ^5\n"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "z", "--n", "1", "--order", "4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"order": 4, "coeffs": ["1/1", "0/1", "3/1", "0/1", "15/1"]}

    def test_log_partition_series_rationals(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "m0", "--order", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == ["0/1", "0/1", "1/1", "0/1", "5/2"]

    def test_map_family_requires_positive_n(self, capsys):
        code, _, err = run(capsys, "series", "--family", "m", "--n", "0")
        assert code == 2
        assert err

    def test_missing_n_for_z_family(self, capsys):
        code, _, _ = run(capsys, "series", "--family", "z")
        assert code == 2

    def test_znp_requires_weight(self, capsys):
        code, _, _ = run(capsys, "series", "--family", "znp", "--n", "1")
        assert code == 2

    def test_wrong_z_formula_is_a_consistency_failure(self, capsys, monkeypatch):
        # the ladder from Z_0 checks the printed Z_2 = 2 + 12λ² + 90λ⁴ + …
        real = nrooted.qft.z_series
        monkeypatch.setattr(
            "nrooted.qft.z_series",
            lambda j, order: real(j, order) + Series.monomial(int(j == 2), 4, order),
        )
        code, out, err = run(capsys, "series", "--family", "z", "--n", "2", "--order", "6")
        assert code == 1
        assert out == ""
        assert err == (
            "consistency failure: z_recursion(2): ladder and formula routes disagree "
            "at λ^4: 90 != 91\n"
        )

    @pytest.mark.parametrize(
        "family", [["m"], ["z"], ["znp", "--p", "1"]], ids=["m", "z", "znp"]
    )
    def test_roots_beyond_their_bound_is_usage_error(self, capsys, family):
        code, out, err = run(capsys, "series", "--family", *family, "--n", "17")
        assert code == 2
        assert out == ""
        assert "--n 17 exceeds its bound of 16" in err
        code, out, _ = run(capsys, "series", "--family", *family, "--n", "16", "--order", "4")
        assert code == 0
        assert out


class TestHardBounds:
    def test_photon_power_beyond_its_bound_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "series", "--family", "znp", "--n", "0", "--p", "2049",
            "--order", "2",
        )
        assert code == 2
        assert out == ""
        assert "--p 2049 exceeds its bound of 2048" in err

    def test_photon_power_at_its_bound_prints_at_the_order_ceiling(self, capsys):
        code, out, err = run(
            capsys, "series", "--family", "znp", "--n", "16", "--p", "2048",
            "--order", "256", "--format", "csv",
        )
        assert code == 0, err
        assert out.splitlines()[-1].startswith("256,")

    @pytest.mark.parametrize("order", ["257", "100000"])
    @pytest.mark.parametrize(
        "command",
        [["series", "--family", "z", "--n", "0"], ["verify", "--suite", "ode"]],
        ids=["series", "verify"],
    )
    def test_order_beyond_the_ceiling_is_usage_error(self, capsys, command, order):
        code, out, err = run(capsys, *command, "--order", order)
        assert code == 2
        assert out == ""
        assert err == f"error: --order {order} exceeds its bound of 256\n"

    def test_order_just_past_the_ceiling_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "series", "--family", "m", "--n", "16", "--order", "257"
        )
        assert code == 2
        assert out == ""
        assert "--order 257 exceeds its bound of 256" in err

    def test_order_at_the_ceiling(self, capsys):
        for family in [["m0"], ["z", "--n", "2"], ["znp", "--n", "1", "--p", "2"], ["m", "--n", "1"]]:
            code, out, err = run(
                capsys, "series", "--family", *family, "--order", "256", "--format", "csv"
            )
            assert code == 0, err
            assert out.splitlines()[-1].startswith("256,")
        # the bijection suite, and so the rest of "all", reads no order
        for suite in ["ode", "theorem3", "tables"]:
            code, out, err = run(capsys, "verify", "--suite", suite, "--order", "256")
            assert code == 0, err
            assert all(r["pass"] for r in json.loads(out))


class TestCountCommand:
    def test_series_method(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "1", "--edges", "3", "--method", "theorem2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["n_roots"] == 1 and data["edges"] == 3
        assert data["method"] == "theorem2"
        assert data["value"] == 74
        assert isinstance(data["elapsed_ms"], int)
        assert list(data) == ["n_roots", "edges", "method", "value", "elapsed_ms"]

    def test_closed_form_method(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "1", "--edges", "4", "--method", "closed-form"
        )
        assert code == 0
        assert json.loads(out)["value"] == 706

    def test_closed_form_restricted_to_one_root(self, capsys):
        code, _, _ = run(
            capsys, "count", "--n", "2", "--edges", "2", "--method", "closed-form"
        )
        assert code == 2

    def test_closed_form_beyond_its_bound_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "count", "--n", "1", "--edges", "129", "--method", "closed-form"
        )
        assert code == 2
        assert out == ""
        assert "129 edges exceed its bound of 128" in err

    def test_closed_form_at_its_bound_matches_theorem2(self, capsys):
        values = []
        for method in ["closed-form", "theorem2"]:
            code, out, _ = run(
                capsys, "count", "--n", "1", "--edges", "128", "--method", method
            )
            assert code == 0
            values.append(json.loads(out)["value"])
        assert values[0] == values[1] > 0

    @pytest.mark.parametrize(
        "n, edges, message",
        [("17", "1", "--n 17 exceeds its bound of 16"),
         ("1", "129", "--edges 129 exceeds its bound of 128"),
         ("0", "1", "--n must be at least 1"),
         ("1", "-1", "--edges must be non-negative")],
    )
    def test_theorem2_beyond_its_bounds_is_usage_error(self, capsys, n, edges, message):
        code, out, err = run(
            capsys, "count", "--n", n, "--edges", edges, "--method", "theorem2"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_theorem2_at_its_bounds(self, capsys):
        for n, edges in [("16", "15"), ("1", "128")]:
            code, out, _ = run(
                capsys, "count", "--n", n, "--edges", edges, "--method", "theorem2"
            )
            assert code == 0
            assert json.loads(out)["value"] > 0

    def test_zero_threads_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "count", "--n", "1", "--edges", "1", "--method", "oracle-wick",
            "--threads", "0",
        )
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_structural_oracle_includes_genus_profile(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "1", "--edges", "1", "--method", "oracle-ribbon"
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 2
        assert data["genus_profile"] == {"0": 2}
        assert isinstance(data["elapsed_ms"], int)
        assert list(data) == [
            "n_roots", "edges", "method", "value", "genus_profile", "elapsed_ms",
        ]

    def test_structural_oracle_two_edges(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "1", "--edges", "2", "--method", "oracle-ribbon"
        )
        data = json.loads(out)
        assert data["value"] == 10
        assert data["genus_profile"] == {"0": 9, "1": 1}

    def test_contraction_oracle(self, capsys):
        code, out, _ = run(
            capsys, "count", "--n", "2", "--edges", "2", "--method", "oracle-wick"
        )
        assert code == 0
        assert json.loads(out)["value"] == 13

    def test_methods_agree(self, capsys):
        values = {}
        for method in ["theorem2", "closed-form", "oracle-ribbon", "oracle-wick"]:
            _, out, _ = run(capsys, "count", "--n", "1", "--edges", "2", "--method", method)
            values[method] = json.loads(out)["value"]
        assert set(values.values()) == {10}

    def test_thread_count_does_not_change_output(self, capsys):
        outputs = []
        for threads in ["1", "3"]:
            _, out, _ = run(
                capsys, "count", "--n", "1", "--edges", "2",
                "--method", "oracle-wick", "--threads", threads,
            )
            data = json.loads(out)
            data["elapsed_ms"] = 0
            outputs.append(data)
        assert outputs[0] == outputs[1]

    def test_deterministic_apart_from_timing(self, capsys):
        runs = []
        for _ in range(2):
            _, out, _ = run(
                capsys, "count", "--n", "2", "--edges", "2", "--method", "oracle-ribbon"
            )
            data = json.loads(out)
            data["elapsed_ms"] = 0
            runs.append(data)
        assert runs[0] == runs[1]

    def test_oracle_disagreement_is_a_consistency_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("nrooted.ribbon.count_maps_by_division", lambda n, e: 999)
        code, _, err = run(
            capsys, "count", "--n", "1", "--edges", "1", "--method", "oracle-ribbon"
        )
        assert code == 1
        assert err == (
            "consistency failure: enumeration found 2 classes but labeled division gives 999\n"
        )

    def test_wrong_closed_form_table_is_a_consistency_failure(self, capsys, monkeypatch):
        # one more composition of 4 into one part makes m_1(3) read 75, not 74
        real = nrooted.qft._composition_table

        def perturbed(f, total):
            rows = real(f, total)
            rows[1][4] += 1
            return rows

        monkeypatch.setattr("nrooted.qft._composition_table", perturbed)
        code, out, err = run(
            capsys, "count", "--n", "1", "--edges", "3", "--method", "closed-form"
        )
        assert code == 1
        assert out == ""
        assert err == (
            "consistency failure: m1_closed_form(3): composition sum and M₁ ODE "
            "disagree (75 vs 74)\n"
        )

    def test_structural_oracle_scans_once(self, capsys, monkeypatch):
        calls = []
        real = nrooted.ribbon.enumerate_maps

        def counted(n, e):
            calls.append((n, e))
            return real(n, e)

        monkeypatch.setattr(nrooted.ribbon, "enumerate_maps", counted)
        code, out, _ = run(
            capsys, "count", "--n", "2", "--edges", "2", "--method", "oracle-ribbon"
        )
        assert code == 0
        assert json.loads(out)["value"] == 13
        assert calls == [(2, 2)]

    def test_out_of_bounds_oracle_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "count", "--n", "1", "--edges", "5", "--method", "oracle-ribbon"
        )
        assert code == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["ode", "theorem3", "tables", "bijection"])
    def test_suite_passes(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        reports = json.loads(out)
        assert reports and all(r["pass"] for r in reports)
        for r in reports:
            assert set(r) == {"identity", "order_checked", "pass", "first_failure_power"}

    def test_ode_suite_identities(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "ode")
        assert [r["identity"] for r in json.loads(out)] == [
            "m1-ode", "m0-ode", "z0-ode",
        ]

    @pytest.mark.parametrize("suite,order", [("theorem3", 0), ("theorem3", 7), ("all", 7)])
    def test_theorem3_runs_at_low_orders(self, capsys, suite, order):
        # M_N's table has no order; only the substitution checks read it
        code, out, err = run(capsys, "verify", "--suite", suite, "--order", str(order))
        assert code == 0
        assert err == ""
        reports = json.loads(out)
        assert "m5-in-m1" in {r["identity"] for r in reports}
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("suite", ["theorem3", "all"])
    def test_theorem3_at_its_order_bound_passes(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--order", "8")
        assert code == 0
        assert err == ""
        assert all(r["pass"] for r in json.loads(out))

    @pytest.mark.parametrize("suite,code", [("ode", 0), ("bijection", 2), ("all", 2)])
    def test_threads_below_one_is_usage_error_where_the_oracles_run(self, capsys, suite, code):
        # --threads has no effect; below 1 it is rejected where the contraction oracle runs
        code_seen, out, err = run(capsys, "verify", "--suite", suite, "--threads", "0")
        assert code_seen == code
        if code:
            assert (out, err) == ("", "error: worker count must be at least 1, got 0\n")

    def test_all_suite_is_union(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "all")
        names = {r["identity"] for r in json.loads(out)}
        for suite in ["ode", "theorem3", "tables", "bijection"]:
            _, part, _ = run(capsys, "verify", "--suite", suite)
            assert {r["identity"] for r in json.loads(part)} <= names

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "nrooted.relations.verify_ode_m1",
            lambda order: VerificationReport("m1-ode", order, False, 4),
        )
        code, out, _ = run(capsys, "verify", "--suite", "ode")
        assert code == 1
        reports = json.loads(out)
        assert any(not r["pass"] for r in reports)
        assert any(r["first_failure_power"] == 4 for r in reports)

    def test_failure_detail_names_power_and_values(self, capsys, monkeypatch):
        # bump m_1(2) from 10 to 11; the ODE's right side still gives 10
        from nrooted.qft import m_series

        monkeypatch.setattr(
            "nrooted.relations.m_series",
            lambda n, order: m_series(n, order) + Series.monomial(1, 4, order),
        )
        code, out, err = run(capsys, "verify", "--suite", "ode")
        assert code == 1
        reports = json.loads(out)
        assert reports[0] == {
            "identity": "m1-ode",
            "order_checked": 11,
            "pass": False,
            "first_failure_power": 4,
        }
        assert all(r["pass"] for r in reports[1:])
        assert err == "FAIL m1-ode: at λ^4: 11 != 10\n"

    def test_failed_closure_names_power(self, capsys, monkeypatch):
        # bump m_3(2) from 6 to 7 where mn_in_m1 reads it; its M₁ substitution
        # still gives 6, so only the m3 closure fails
        real = nrooted.relations.m_series

        def perturbed(n, order):
            series = real(n, order)
            return series + Series.monomial(1, 4, order) if n == 3 else series

        monkeypatch.setattr(nrooted.relations, "m_series", perturbed)
        code, out, err = run(capsys, "verify", "--suite", "theorem3")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "m3-in-m1-closure",
                "order_checked": 12,
                "pass": False,
                "first_failure_power": 4,
            }
        ]
        assert err.startswith("FAIL m3-in-m1-closure: ")
        assert "at λ^4: 6 != 7" in err

    def test_wrong_table_identity_fails_alone(self, capsys, monkeypatch):
        # 7·λ²·M₁ becomes 8·λ²·M₁ in the N = 3 row; the built table has 7 there
        table = {n: list(row) for n, row in nrooted.tables.M1_IDENTITIES.items()}
        table[3] = [(8, 2, 1) if term == (7, 2, 1) else term for term in table[3]]
        monkeypatch.setattr(nrooted.tables, "M1_IDENTITIES", table)
        code, out, err = run(capsys, "verify", "--suite", "theorem3")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "m3-in-m1",
                "order_checked": 12,
                "pass": False,
                "first_failure_power": 2,
            }
        ]
        assert err == "FAIL m3-in-m1: at λ^2·M₁^1: 7 != 8\n"

    def test_wrong_published_znp_fails_alone(self, capsys, monkeypatch):
        # Z_{1,1} reads 91 at λ^5 where the paper prints 90
        real = nrooted.relations.z_np_series

        def perturbed(n, p, order):
            series = real(n, p, order)
            return series + Series.monomial(1, 5, order) if (n, p) == (1, 1) else series

        monkeypatch.setattr(nrooted.relations, "z_np_series", perturbed)
        code, out, err = run(capsys, "verify", "--suite", "tables")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "znp-1-1-coefficient",
                "order_checked": 5,
                "pass": False,
                "first_failure_power": 5,
            }
        ]
        assert err == "FAIL znp-1-1-coefficient: at λ^5: 91 != 90\n"

    @pytest.mark.parametrize(
        "perturb,first",
        [
            # a dropped top term and a changed constant: the lower λ-power comes first
            (lambda row: [(-94, 2, 0) if t == (-93, 2, 0) else t for t in row[:-1]],
             "at λ^2·M₁^0: -93 != -94"),
            # at one λ-power, the lower M₁-power comes first
            (lambda row: [(c + 1, lam, m) if lam == 4 and m >= 2 else (c, lam, m)
                          for c, lam, m in row], "at λ^4·M₁^2: -1875 != -1874"),
            (lambda row: row + [(5, 10, 0)], "at λ^10·M₁^0: 0 != 5"),
        ],
    )
    def test_perturbed_row_names_the_first_differing_monomial(
        self, capsys, monkeypatch, perturb, first
    ):
        table = dict(nrooted.tables.M1_IDENTITIES)
        table[5] = perturb(table[5])
        monkeypatch.setattr(nrooted.tables, "M1_IDENTITIES", table)
        code, out, err = run(capsys, "verify", "--suite", "theorem3", "--order", "16")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        power = int(first.split("λ^")[1].split("·")[0])
        assert failed == [
            {
                "identity": "m5-in-m1",
                "order_checked": 16,
                "pass": False,
                "first_failure_power": power,
            }
        ]
        assert err == f"FAIL m5-in-m1: {first}\n"

    def test_wrong_published_count_names_its_power(self, capsys, monkeypatch):
        # m_2(3) is 165; a published 166 differs at λ^6, not at the order 12
        tables = dict(nrooted.tables.M_TABLES)
        tables[2] = (0, 1, 13, 166, 2273, 34577, 581133)
        monkeypatch.setattr(nrooted.tables, "M_TABLES", tables)
        code, out, err = run(capsys, "verify", "--suite", "tables")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "m2-table",
                "order_checked": 12,
                "pass": False,
                "first_failure_power": 6,
            }
        ]
        assert err == "FAIL m2-table: at λ^6: 165 != 166\n"

    def test_wrong_b_table_entry_is_named(self, capsys, monkeypatch):
        # B[5][4] = B_{5,7} is 5·14/2 = 35; only the closed-form check reads
        # the 12-row table, so only it fails, and with no λ-power
        from nrooted.relations import b_table

        def perturbed(n_max):
            rows = b_table(n_max)
            if n_max != 12:
                return rows
            return (*rows[:5], (*rows[5][:4], 99, *rows[5][5:]), *rows[6:])

        monkeypatch.setattr(nrooted.relations, "b_table", perturbed)
        code, out, err = run(capsys, "verify", "--suite", "theorem3")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "b-closed-forms",
                "order_checked": 12,
                "pass": False,
                "first_failure_power": None,
            }
        ]
        assert err == "FAIL b-closed-forms: B[5][4]: 99 != 35\n"

    def test_polynomials_do_not_read_the_b_table(self, capsys, monkeypatch):
        # B[3][1] = B_{3,1} is 27; 28 breaks the lemma at n = 3 alone, and the
        # quotients and M_N, built by the ladder, do not read the table
        from nrooted.relations import b_table

        def perturbed(n_max):
            rows = b_table(n_max)
            if n_max < 3:
                return rows
            return (*rows[:3], (rows[3][0], rows[3][1] + 1, *rows[3][2:]), *rows[4:])

        monkeypatch.setattr(nrooted.relations, "b_table", perturbed)
        code, out, err = run(capsys, "verify", "--suite", "theorem3")
        assert code == 1
        failed = [r["identity"] for r in json.loads(out) if not r["pass"]]
        assert failed == ["z0-derivative-basis-n3"]
        assert err == (
            "FAIL z0-derivative-basis-n3: derivative-basis identity (n=3): "
            "sides differ at λ^0: 0 != 1\n"
        )

    def test_wrong_z1_shape_fails_alone(self, capsys, monkeypatch):
        # 2·M₁ in place of M₁; the closures build their quotients without this function
        from nrooted.relations import M1Polynomial

        monkeypatch.setattr(
            nrooted.relations,
            "zj_over_z0_in_m1",
            lambda j, order: M1Polynomial([[], [2]]),
        )
        code, out, err = run(capsys, "verify", "--suite", "theorem3")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "z1-over-z0-is-m1",
                "order_checked": 12,
                "pass": False,
                "first_failure_power": None,
            }
        ]
        assert err == "FAIL z1-over-z0-is-m1: Z₁/Z₀ should be exactly M₁\n"

    def test_oracle_disagreement_names_every_count(self, capsys, monkeypatch):
        # one more labeled class for N = 2, e = 2; the other three routes give 13
        real = nrooted.ribbon.count_maps_by_division
        monkeypatch.setattr(
            nrooted.ribbon,
            "count_maps_by_division",
            lambda n, e: real(n, e) + ((n, e) == (2, 2)),
        )
        code, out, err = run(capsys, "verify", "--suite", "bijection")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "oracle-agreement-n2-e2",
                "order_checked": 4,
                "pass": False,
                "first_failure_power": 4,
            }
        ]
        assert err == (
            "FAIL oracle-agreement-n2-e2: {'enumeration': 13, 'division': 14, "
            "'contraction': 13, 'series': 13}\n"
        )

    def test_short_fiber_names_its_size(self, capsys, monkeypatch):
        # one of the two N = 1, e = 1 classes loses one of its 2! contractions
        real = nrooted.wick.bijection_class_multiset

        def perturbed(n, e):
            fibers = real(n, e)
            if (n, e) == (1, 1):
                fibers[min(fibers)] -= 1
            return fibers

        monkeypatch.setattr(nrooted.wick, "bijection_class_multiset", perturbed)
        code, out, err = run(capsys, "verify", "--suite", "bijection")
        assert code == 1
        failed = [r for r in json.loads(out) if not r["pass"]]
        assert failed == [
            {
                "identity": "fiber-size-n1-e1",
                "order_checked": 2,
                "pass": False,
                "first_failure_power": 2,
            }
        ]
        assert err == (
            "FAIL fiber-size-n1-e1: contractions reach 2 classes, enumeration finds 2; "
            "fiber sizes other than (2e)! = 2: [1]\n"
        )

    def test_bijection_suite_stdout_is_pinned(self, capsys):
        # the whole default output, whose digest the benchmark also pins
        code, out, err = run(capsys, "verify", "--suite", "bijection")
        assert (code, err) == (0, "")
        assert out == BIJECTION_SUITE_STDOUT


class TestConvertCommand:
    @pytest.mark.parametrize(
        "to, data",
        [
            ("contraction", {"half_edges": 2, "alpha": [[True, 2]],
                             "sigma": [[1, 2]], "roots": [True]}),
            ("contraction", {"half_edges": False, "alpha": [], "sigma": [], "roots": []}),
            ("map", {"n_external": 1, "n_vertices": 2, "photon_pairs": [[1, 2]],
                     "electron_targets": [True, 2, "ket1"]}),
            ("map", {"n_external": True, "n_vertices": 0, "photon_pairs": [],
                     "electron_targets": ["ket1"]}),
            ("contraction", {"half_edges": 0, "alpha": 0, "sigma": None, "roots": False}),
        ],
    )
    def test_json_booleans_are_usage_errors(self, capsys, monkeypatch, to, data):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        code, out, err = run(capsys, "convert", "--to", to)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("label", NON_CANONICAL_KETS)
    def test_non_canonical_ket_label_is_usage_error(self, capsys, monkeypatch, label):
        data = {"n_external": 1, "n_vertices": 2, "photon_pairs": [[1, 2]],
                "electron_targets": [1, 2, label]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        code, out, err = run(capsys, "convert", "--to", "map")
        assert (code, out) == (2, "")
        assert err == f"error: electron_targets: malformed ket label {label!r}\n"

    @pytest.mark.parametrize("field", ["alpha", "sigma"])
    def test_empty_cycle_is_usage_error(self, capsys, monkeypatch, field):
        data = {"half_edges": 2, "alpha": [[1, 2]], "sigma": [[1, 2]], "roots": [1]}
        data[field].append([])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        code, out, err = run(capsys, "convert", "--to", "contraction")
        assert (code, out) == (2, "")
        assert err == f"error: {field}: a cycle must not be empty\n"

    def test_map_to_contraction_file(self, capsys, tmp_path):
        src = tmp_path / "map.json"
        src.write_text(json.dumps(EXAMPLE_MAP_JSON))
        code, out, _ = run(capsys, "convert", "--input", str(src), "--to", "contraction")
        assert code == 0
        data = json.loads(out)
        assert data["n_external"] == 3
        assert data["n_vertices"] == 12
        assert len(data["photon_pairs"]) == 6

    def test_round_trip_through_both_directions(self, capsys, tmp_path):
        src = tmp_path / "map.json"
        src.write_text(json.dumps(EXAMPLE_MAP_JSON))
        _, contraction_text, _ = run(
            capsys, "convert", "--input", str(src), "--to", "contraction"
        )
        back = tmp_path / "w.json"
        back.write_text(contraction_text)
        code, out, _ = run(capsys, "convert", "--input", str(back), "--to", "map")
        assert code == 0
        # output is the canonical relabeling of the source map
        from nrooted.ribbon import canonical_form, map_from_json, map_to_json

        expected = map_to_json(canonical_form(map_from_json(EXAMPLE_MAP_JSON)))
        assert json.loads(out) == expected

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(EXAMPLE_MAP_JSON)))
        code, out, _ = run(capsys, "convert", "--to", "contraction")
        assert code == 0
        assert json.loads(out)["n_external"] == 3

    def test_point_map_round_trip(self, capsys, tmp_path):
        src = tmp_path / "point.json"
        src.write_text(json.dumps({"half_edges": 0, "alpha": [], "sigma": [], "roots": []}))
        _, out, _ = run(capsys, "convert", "--input", str(src), "--to", "contraction")
        data = json.loads(out)
        assert data == {
            "n_external": 1,
            "n_vertices": 0,
            "photon_pairs": [],
            "electron_targets": ["ket1"],
        }

    def test_invalid_pairing_is_usage_error_with_reason(self, capsys, tmp_path):
        bad = dict(EXAMPLE_MAP_JSON)
        bad["alpha"] = [[1], [2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12]]
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(bad))
        code, _, err = run(capsys, "convert", "--input", str(src), "--to", "contraction")
        assert code == 2
        assert "not fixed-point-free" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "convert", "--input", str(tmp_path / "nope.json"), "--to", "map"
        )
        assert code == 2

    def test_unparsable_json(self, capsys, tmp_path):
        src = tmp_path / "x.json"
        src.write_text("{not json")
        code, _, _ = run(capsys, "convert", "--input", str(src), "--to", "map")
        assert code == 2

    def test_deeply_nested_json_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100_000 + "]" * 100_000))
        code, out, err = run(capsys, "convert", "--to", "map")
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not valid JSON: ")

    @pytest.mark.parametrize(
        "to, data, message",
        [
            ("contraction", {"half_edges": 200_000, "alpha": [], "sigma": [], "roots": [1]},
             "alpha: cycles list 0 of the 200000 half-edges"),
            ("map", {"n_external": 1, "n_vertices": 200_000, "photon_pairs": [],
                     "electron_targets": ["ket1"]},
             "photon_pairs: every vertex must be matched"),
        ],
        ids=["map", "contraction"],
    )
    def test_declared_size_costs_nothing_the_document_does_not_hold(
        self, capsys, monkeypatch, to, data, message
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "convert", "--to", to)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 1_000_000


#: Every option string of each subcommand, as its --help prints them.
OPTION_STRINGS = {
    "series": ["--family", "--format", "--help", "--n", "--order", "--p", "-h"],
    "count": ["--edges", "--help", "--method", "--n", "--threads", "-h"],
    "verify": ["--help", "--order", "--suite", "--threads", "-h"],
    "convert": ["--help", "--input", "--to", "-h"],
}


class TestDispatch:
    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_option_strings_are_pinned(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        found = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", out))
        assert sorted(found) == OPTION_STRINGS[command]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["series", "--family", "znp", "--n", "-1", "--p", "1"],
             "family znp requires --n >= 0"),
            (["series", "--family", "z", "--n", "0", "--order", "-1"],
             "order must be non-negative"),
            (["verify", "--suite", "ode", "--order", "-1"], "order must be non-negative"),
        ],
        ids=["series-znp-n", "series-order", "verify-order"],
    )
    def test_negative_value_is_usage_error(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "series" in capsys.readouterr().out

    def test_unknown_method_is_usage_error(self, capsys):
        code = main(["count", "--n", "1", "--edges", "1", "--method", "bogus"])
        assert code == 2
        capsys.readouterr()

    def test_console_script_installed(self):
        # The console script that `pip install` would generate, checked from
        # the source tree: the declared target must be nrooted's entry point,
        # and pip's wrapper around it must pass main()'s exit code on.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["nrooted"]
        ep = EntryPoint(name="nrooted", value=target, group="console_scripts")
        assert ep.load() is nrooted.cli.entry_point

        wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
        package_root = str(Path(nrooted.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )

        def script(*argv):
            return subprocess.run(
                [sys.executable, "-c", wrapper, *argv],
                capture_output=True,
                text=True,
                env=env,
            )

        proc = script("series", "--family", "z", "--n", "0", "--order", "6",
                      "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == "0,1\n2,1\n4,3\n6,15\n"

        proc = script("count", "--n", "1", "--edges", "1", "--method", "bogus")
        assert proc.returncode == 2
