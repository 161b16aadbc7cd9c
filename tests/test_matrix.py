"""The policy x reference-order fairness matrix: the reference-order
registry, the ``matrix`` paper artifact and its rendering helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.artifacts import PaperConfig, build_artifacts, get_artifact
from repro.artifacts.registry import (
    MATRIX_REFERENCE_ORDERS,
    matrix_from_suite,
    render_matrix_rows,
)
from repro.campaign.cache import CampaignCache
from repro.experiments.runner import RunOptions
from repro.metrics.fairness import (
    ReferenceOrder,
    get_reference_order,
    reference_order_names,
    register_reference_order,
)
from repro.sched.registry import MATRIX_POLICIES

REPO_ROOT = Path(__file__).resolve().parent.parent

#: tiny but non-degenerate trace for the build round-trip tests
TINY = PaperConfig(scale=0.01, seed=3)


def _build(out_dir, cache=None):
    return build_artifacts(
        only=["matrix"], config=TINY, out_dir=out_dir, cache=cache, check=True
    )


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One cold, cached matrix build shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("matrix")
    cache = CampaignCache(root / "cache")
    return root, cache, _build(root / "out", cache)


class TestReferenceOrderRegistry:
    def test_builtins_registered_in_order(self):
        names = reference_order_names()
        assert names[:3] == ("fairshare", "fcfs", "shortest-first")
        assert tuple(MATRIX_REFERENCE_ORDERS) == names[:3]

    def test_unknown_order_lists_known_names(self):
        with pytest.raises(KeyError, match="fairshare.*fcfs.*shortest-first"):
            get_reference_order("lottery")

    def test_duplicate_registration_rejected(self):
        order = get_reference_order("fcfs")
        with pytest.raises(ValueError, match="duplicate reference order"):
            register_reference_order(
                ReferenceOrder("fcfs", "dup", order.order)
            )

    def test_order_metadata(self):
        for name in reference_order_names():
            ro = get_reference_order(name)
            assert ro.name == name
            assert ro.description


class TestMatrixConfig:
    """The ``matrix`` artifact's cells: the registry frontier, every
    built-in reference order observed on each."""

    def test_defaults_are_the_registry_frontier(self):
        art = get_artifact("matrix")
        assert art.policies == MATRIX_POLICIES
        assert art.options.reference_orders == MATRIX_REFERENCE_ORDERS

    def test_options_pin_fairshare_first(self):
        opts = RunOptions.from_mapping(
            {"reference_orders": ("fcfs", "shortest-first")}
        )
        assert opts.reference_orders == ("fairshare", "fcfs", "shortest-first")
        # the artifact's options are already in that canonical form, so its
        # cells share cache keys with any equivalent request
        assert get_artifact("matrix").options == opts


class TestRunMatrix:
    def test_deterministic_in_process(self, built, tmp_path):
        _, _, first = built
        again = _build(tmp_path / "out")
        assert again.n_simulated == len(MATRIX_POLICIES)
        assert again.texts == first.texts
        assert again.manifest_path.read_bytes() == \
            first.manifest_path.read_bytes()

    def test_cache_round_trip(self, built, tmp_path):
        _, cache, first = built
        assert first.n_simulated == len(MATRIX_POLICIES)
        assert first.n_cached == 0
        second = _build(tmp_path / "out", cache)
        assert second.n_simulated == 0
        assert second.n_cached == len(MATRIX_POLICIES)
        assert second.texts == first.texts

    def test_render_shape(self, built):
        _, _, result = built
        lines = result.texts["matrix"].splitlines()
        assert lines[0].startswith("Fairness matrix")
        header = next(
            ln for ln in lines if ln.startswith("policy") and " | " in ln
        )
        for order in MATRIX_REFERENCE_ORDERS:
            assert order in header
        for policy in MATRIX_POLICIES:
            assert any(ln.startswith(policy) for ln in lines)

    def test_fcfs_nobackfill_row_is_exactly_fair_under_fcfs(self):
        suite = api.compare(
            ["fcfs.nobackfill"],
            workload=TINY.build_workload(),
            options=get_artifact("matrix").options,
        )
        rows = matrix_from_suite(suite, MATRIX_REFERENCE_ORDERS)
        assert rows["fcfs.nobackfill"]["fcfs"]["n_unfair"] == 0

    def test_deterministic_across_processes(self, built, tmp_path):
        _, _, here = built
        prog = (
            "import sys\n"
            "from repro.artifacts import PaperConfig, build_artifacts\n"
            "r = build_artifacts(only=['matrix'], config=PaperConfig("
            "scale=0.01, seed=3), out_dir=sys.argv[1])\n"
            "sys.stdout.write(r.texts['matrix'])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, "-c", prog, str(tmp_path / "out")], env=env,
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == here.texts["matrix"]


class TestMatrixFromSuite:
    def test_requires_fairness_by_order(self, small_workload):
        suite = api.compare(["fcfs.nobackfill"], workload=small_workload)
        with pytest.raises(ValueError, match="fairness_by_order"):
            matrix_from_suite(suite, ("fairshare",))

    def test_renders_from_policy_runs(self, small_workload):
        from repro.experiments.runner import run_policy

        orders = ("fairshare", "fcfs")
        suite = {
            p: run_policy(small_workload, p, reference_orders=orders)
            for p in ("fcfs.nobackfill", "easy.fcfs")
        }
        rows = matrix_from_suite(suite, orders)
        assert set(rows) == {"fcfs.nobackfill", "easy.fcfs"}
        for blocks in rows.values():
            assert set(blocks) == set(orders)
            for block in blocks.values():
                assert 0.0 <= block["percent_unfair"] <= 1.0
        lines = render_matrix_rows(rows, orders)
        assert [c.strip() for c in lines[0].split(" | ")[1:]] == list(orders)
        assert [ln.split(" | ")[0].strip() for ln in lines[2:]] == \
            sorted(rows)
