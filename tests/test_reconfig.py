"""Reconfiguration workloads: epoch drivers, boundary checker, conformance.

The acceptance criteria of the dynamic-membership tentpole, pinned as tests:

* a workload spanning **three membership epochs** passes per-epoch
  conformance — the ``L(Q)`` LP lower bound and the restricted-strategy
  envelope hold against each epoch's own closed forms
  (:func:`repro.analysis.conformance.reconfig_conformance`);
* the register is **one register across epochs**: the stitched history of
  a reconfiguring run passes the ordinary checker (no ``epochs=``), the first
  reads of a new epoch return the last value written before the boundary,
  and injected boundary violations (a ghost value from an evicted epoch, a
  cross-boundary duplicate or inverted timestamp, a write acknowledged by a
  severed server) are each flagged by the right counter;
* both vectorised **modes agree bit for bit** per seed, and the new
  ``reconfig-*`` catalogue scenarios are seed-deterministic on both engines
  through the facade;
* :class:`repro.api.membership.MembershipSpec` round-trips through JSON.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import MGrid, api
from repro.analysis import reconfig_conformance
from repro.core import Membership, plan_events
from repro.core.membership import severed_between
from repro.exceptions import InvalidParameterError, SimulationError
from repro.simulation import (
    REOPTIMISE_POLICIES,
    MembershipTimeline,
    Timestamp,
    check_register_history,
    reoptimise_strategy,
    run_event_workload,
    run_workload,
)

SEED = 11


def _churn_timeline(
    side: int = 5, policy: str = "reweight"
) -> tuple[MGrid, MembershipTimeline]:
    """MGrid(side, 1) severing its outer ring, then re-admitting it."""
    system = MGrid(side, 1)
    ring = side * side - (side - 1) ** 2
    events = plan_events(system.universe, [("sever", ring), ("join", ring)])
    membership = Membership(system.universe, events)
    return system, MembershipTimeline(membership=membership, policy=policy)


class TestTimeline:
    def test_fractions_default_to_equal_split(self):
        _, timeline = _churn_timeline()
        assert timeline.num_epochs == 3
        assert sum(timeline.fractions) == pytest.approx(1.0)
        assert timeline.operations_per_epoch(120) == (40, 40, 40)

    def test_every_epoch_gets_at_least_one_operation(self):
        system, _ = _churn_timeline()
        membership = Membership(
            system.universe, plan_events(system.universe, [("sever", 9), ("join", 9)])
        )
        timeline = MembershipTimeline(
            membership=membership, fractions=(0.98, 0.01, 0.01)
        )
        counts = timeline.operations_per_epoch(10)
        assert min(counts) >= 1
        assert sum(counts) == 10

    def test_bad_fractions_rejected(self):
        system, _ = _churn_timeline()
        membership = Membership(
            system.universe, plan_events(system.universe, [("sever", 9)])
        )
        with pytest.raises(SimulationError):
            MembershipTimeline(membership=membership, fractions=(0.5, 0.2))
        for fractions in ((float("nan"), 0.5), (float("inf"), 0.5), (1.5, -0.5)):
            with pytest.raises(SimulationError, match="must be positive"):
                MembershipTimeline(membership=membership, fractions=fractions)

    def test_too_few_operations_rejected(self):
        _, timeline = _churn_timeline()
        with pytest.raises(SimulationError):
            timeline.operations_per_epoch(2)


class TestVectorisedDriver:
    def test_three_epoch_run_is_clean(self):
        system, timeline = _churn_timeline()
        result = run_workload(
            system,
            scenario=timeline,
            num_operations=120,
            rng=np.random.default_rng(SEED),
        )
        assert result.num_epochs == 3
        assert result.is_consistent
        assert result.whole.consistency_violations == 0
        assert result.whole.operations == 120
        # The middle epoch really rebound to the smaller construction.
        assert result.outcomes[1].n == 16
        assert "@e1" in result.outcomes[1].system_name
        # The re-join restored the original configuration.
        assert result.outcomes[2].n == 25
        assert result.outcomes[0].policy == "initial"

    @pytest.mark.parametrize("policy", REOPTIMISE_POLICIES)
    def test_per_epoch_conformance(self, policy):
        """Acceptance: >= 3 epochs, per-epoch L(Q) bound and envelope hold."""
        system, timeline = _churn_timeline(policy=policy)
        result = run_workload(
            system,
            scenario=timeline,
            num_operations=150,
            rng=np.random.default_rng(SEED),
        )
        report = reconfig_conformance(result, system, timeline.membership)
        report.require()
        assert result.num_epochs >= 3
        # Every epoch contributes tagged checks; the LP lower bound is only
        # claimed for strategies supported on the epoch's own quorums.
        metrics = [check.metric for check in report.checks]
        for index in range(result.num_epochs):
            assert f"load-envelope[e{index}]" in metrics
            outcome = result.outcomes[index]
            if outcome.policy != "reweight":
                assert f"load-lp-lower-bound[e{index}]" in metrics
            else:
                assert f"load-lp-lower-bound[e{index}]" not in metrics

    def test_vectorised_and_sequential_agree_bit_for_bit(self):
        system, timeline = _churn_timeline()
        results = {}
        for mode in ("vectorised", "sequential"):
            results[mode] = run_workload(
                system,
                scenario=timeline,
                num_operations=120,
                rng=np.random.default_rng(SEED),
                mode=mode,
            )
        vec, seq = results["vectorised"], results["sequential"]
        assert vec.to_dict() == seq.to_dict()
        for left, right in zip(vec.outcomes, seq.outcomes):
            assert left.result == right.result

    def test_later_epochs_open_with_reads_of_the_installed_register(self):
        """No write is forced after a hand-over: with ``write_fraction=0`` only
        epoch 0 writes (its forced first operation), every later epoch is all
        reads, none of them stale, and the two modes still agree bit for bit."""
        system, timeline = _churn_timeline()
        results = [
            run_workload(
                system,
                scenario=timeline,
                num_operations=60,
                write_fraction=0.0,
                rng=np.random.default_rng(SEED),
                mode=mode,
            )
            for mode in ("vectorised", "sequential")
        ]
        for result in results:
            parts = [outcome.result for outcome in result.outcomes]
            assert [part.successful_writes for part in parts] == [1, 0, 0]
            assert [part.successful_reads for part in parts] == [19, 20, 20]
            assert result.whole.stale_reads == result.whole.consistency_violations == 0
        assert [o.result for o in results[0].outcomes] == [o.result for o in results[1].outcomes]

    def test_reweight_falls_back_to_resolve_when_support_empties(self):
        system, timeline = _churn_timeline(policy="reweight")
        result = run_workload(
            system,
            scenario=timeline,
            num_operations=90,
            strategy="uniform",
            rng=np.random.default_rng(SEED),
        )
        # No uniform MGrid(5,1) quorum survives inside the 4x4 survivors, so
        # epoch 1 re-solves; epoch 2's reweight of that strategy succeeds.
        assert result.outcomes[1].policy == "resolve"
        assert result.outcomes[2].policy == "reweight"

    def test_reoptimise_strategy_rejects_unknown_policy(self):
        system, timeline = _churn_timeline()
        with pytest.raises(SimulationError):
            reoptimise_strategy(
                system, timeline.membership, 1, policy="anneal"
            )


class TestEventDriver:
    def _run(self, seed: int = SEED):
        system, timeline = _churn_timeline()
        return run_event_workload(
            system,
            scenario=timeline,
            num_clients=4,
            operations_per_client=18,
            rng=np.random.default_rng(seed),
            keep_history=True,
        )

    def test_stitched_history_is_clean(self):
        """Acceptance: zero violations at <= b faults per epoch."""
        result = self._run()
        assert result.check.ok
        assert result.check.foreign_quorum_members == 0
        assert result.num_epochs == 3
        assert len(result.windows) == 3
        assert result.windows[-1].end == float("inf")
        assert result.history, "keep_history must populate the records"

    def test_one_register_across_epochs(self):
        """The hand-over, over 24 seeds: the stitched history passes the
        *ordinary* checker (no ``epochs=``), and a client's first operation of
        a new epoch — sent before any new-epoch write can have reached a
        replica — reads the highest-timestamped write completed before the
        boundary."""
        opening_reads = 0
        for seed in range(24):
            result = self._run(seed)
            check = check_register_history(result.history)
            assert check.ok, (seed, check.violations)
            for window in result.windows[1:]:
                handed_over = max(
                    (
                        record
                        for record in result.history
                        if record.kind == "write"
                        and record.success
                        and record.responded_at < window.start
                    ),
                    key=lambda record: record.timestamp,
                ).attempted_pair
                first_of_client = {}
                for record in result.history:
                    if window.covers(record.invoked_at, record.responded_at):
                        first_of_client.setdefault(record.client_id, record)
                for record in first_of_client.values():
                    if record.kind == "read":
                        assert record.success and record.pair == handed_over, seed
                        opening_reads += 1
        assert opening_reads >= 24, "the sweep must exercise the hand-over"

    def test_unvouched_hand_over_is_an_error(self, monkeypatch):
        """Never a silent fall-back to the zero pair."""
        from repro.simulation import runner

        monkeypatch.setattr(runner, "vouched_pair", lambda pairs, b: None)
        with pytest.raises(SimulationError, match="cannot hand its register over"):
            self._run()

    def test_event_runs_pass_per_epoch_conformance(self):
        """One ReconfigResult for both engines: the per-epoch bounds accept
        an event-engine run (rejected by type before)."""
        system, timeline = _churn_timeline()
        result = self._run()
        report = reconfig_conformance(result, system, timeline.membership)
        report.require()
        metrics = {check.metric for check in report.checks}
        for index in range(3):
            assert {f"load-envelope[e{index}]", f"fabricated-reads[e{index}]"} <= metrics

    def test_whole_is_the_fold_of_the_epochs(self):
        result = self._run()
        parts = [outcome.result for outcome in result.outcomes]
        assert result.whole == type(parts[0]).fold(parts)
        assert result.whole.operations == 4 * 18
        assert result.whole.duration == sum(part.duration for part in parts)
        assert result.whole.events_processed == sum(p.events_processed for p in parts)
        low, high = (f(part.latency_p50 for part in parts) for f in (min, max))
        assert low <= result.whole.latency_p50 <= high
        # Severed servers served nothing in the middle epoch but stay in the
        # whole run's per-server accounting.
        assert set(result.whole.per_server_load) == set(result.windows[0].members)

    def test_vectorised_result_has_no_history_side(self):
        system, timeline = _churn_timeline()
        result = run_workload(
            system,
            scenario=timeline,
            num_operations=90,
            rng=np.random.default_rng(SEED),
        )
        assert (result.windows, result.check, result.history) == ((), None, ())
        assert result.whole == type(result.whole).fold([o.result for o in result.outcomes])
        assert not hasattr(result.whole, "latency_p50")

    def test_windows_carry_member_sets_and_epoch_b(self):
        """Member sets live on the windows, the epoch's ``b`` on the outcomes."""
        result = self._run()
        members = [window.members for window in result.windows]
        assert len(members[1]) == 16
        assert members[0] == members[2]
        assert [outcome.b for outcome in result.outcomes] == [3, 2, 3]


class TestEpochBoundaryFuzz:
    """Injected violations across epoch boundaries must all be flagged."""

    def _mutable_run(self, seed: int):
        system, timeline = _churn_timeline()
        result = run_event_workload(
            system,
            scenario=timeline,
            num_clients=4,
            operations_per_client=18,
            rng=np.random.default_rng(seed),
            keep_history=True,
        )
        assert result.check.ok
        return list(result.history), list(result.windows)

    @staticmethod
    def _completed_writes(records, window):
        """Indices of the successful writes inside ``window``, in history order."""
        return [
            i
            for i, r in enumerate(records)
            if r.kind == "write"
            and r.success
            and window.start <= r.invoked_at
            and r.responded_at < window.end
        ]

    @staticmethod
    def _rewrite(records, index, timestamp):
        """Give the write at ``index`` another timestamp (value kept)."""
        record = records[index]
        records[index] = replace(
            record,
            timestamp=timestamp,
            attempted_pair=replace(record.attempted_pair, timestamp=timestamp),
        )

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_ghost_value_from_an_evicted_epoch_is_a_stale_read(self, seed):
        records, windows = self._mutable_run(seed)
        ghost = records[self._completed_writes(records, windows[0])[-1]].attempted_pair
        assert self._completed_writes(records, windows[1]), "epoch 1 must overwrite it"
        victim = [
            i
            for i, r in enumerate(records)
            if r.kind == "read" and r.success and r.invoked_at >= windows[2].start
        ][-1]
        records[victim] = replace(
            records[victim], value=ghost.value, timestamp=ghost.timestamp
        )
        for check in (
            check_register_history(records, epochs=windows),
            check_register_history(records),
        ):
            assert check.stale_reads == 1 and check.fabricated_reads == 0
            assert not check.ok

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_duplicate_timestamp_across_a_boundary_is_flagged(self, seed):
        records, windows = self._mutable_run(seed)
        donor = records[self._completed_writes(records, windows[0])[-1]]
        self._rewrite(
            records, self._completed_writes(records, windows[1])[0], donor.timestamp
        )
        check = check_register_history(records, epochs=windows)
        assert check.duplicate_write_timestamps == 1
        assert not check.ok

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_real_time_inversion_across_a_boundary_is_flagged(self, seed):
        """Epoch 1's first write (its client's first there) gets a fresh
        timestamp below everything epoch 0 completed: unique, per-client
        monotone *within* the epoch — wrong only across the boundary."""
        records, windows = self._mutable_run(seed)
        self._rewrite(
            records,
            self._completed_writes(records, windows[1])[0],
            Timestamp(counter=0, client_id=77),
        )
        check = check_register_history(records, epochs=windows)
        assert check.write_order_violations >= 1
        assert check.duplicate_write_timestamps == 0
        assert not check.ok

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_write_acknowledged_by_severed_server_is_flagged(self, seed):
        records, windows = self._mutable_run(seed)
        severed = windows[0].members - windows[1].members
        assert severed, "the churn severs the outer ring"
        intruder = sorted(severed, key=repr)[0]
        victim = self._completed_writes(records, windows[1])[0]
        records[victim] = replace(
            records[victim], quorum=records[victim].quorum | {intruder}
        )
        check = check_register_history(records, epochs=windows)
        assert check.foreign_quorum_members >= 1
        assert not check.ok

    @pytest.mark.parametrize("seed", [1, 7])
    def test_fabrication_across_epochs_is_still_fabrication(self, seed):
        records, windows = self._mutable_run(seed)
        victims = [
            i
            for i, r in enumerate(records)
            if r.kind == "read" and r.success and r.invoked_at > windows[1].start
        ]
        victim = victims[0]
        records[victim] = replace(
            records[victim],
            value="forged-by-nobody",
            timestamp=Timestamp(counter=10**6, client_id=99),
        )
        check = check_register_history(records, epochs=windows)
        assert check.fabricated_reads >= 1
        assert not check.ok

    def test_severed_between_names_the_ring(self):
        system, timeline = _churn_timeline()
        membership = timeline.membership
        ring = membership.epoch(0).member_set() - membership.epoch(1).member_set()
        assert severed_between(membership, 0, 1) == ring
        assert severed_between(membership, 2, 2) == frozenset()


class TestFacade:
    @pytest.mark.parametrize("scenario", ["reconfig-churn", "reconfig-growth"])
    @pytest.mark.parametrize("engine", ["vectorized", "event"])
    def test_catalogue_reconfig_is_seed_deterministic(self, scenario, engine):
        spec = api.WorkloadSpec(
            system="mgrid",
            params={"side": 5, "b": 1},
            scenario=scenario,
            operations=120,
            seed=SEED,
        )
        first = api.run(spec, engine=engine)
        second = api.run(spec, engine=engine)
        assert first.engine == engine
        assert first.to_dict() == second.to_dict()
        assert first.consistent
        assert first.epochs is not None and len(first.epochs) == 3

    def test_report_schema_includes_epochs(self):
        spec = api.WorkloadSpec(
            system="mgrid",
            params={"side": 5, "b": 1},
            scenario="reconfig-churn",
            operations=90,
            seed=3,
        )
        report = api.run(spec)
        payload = report.to_dict()
        assert tuple(payload) == api.WorkloadReport.SCHEMA
        assert json.loads(json.dumps(payload)) == payload
        # Fixed-membership runs keep the slot, unset.
        plain = api.run(
            api.WorkloadSpec(
                system="mgrid", params={"side": 5, "b": 1}, operations=40, seed=3
            )
        )
        assert plain.epochs is None

    def test_membership_field_drives_a_custom_reconfig(self):
        spec = api.WorkloadSpec(
            system="mgrid",
            params={"side": 5, "b": 1},
            membership=api.MembershipSpec(
                events=(("sever", 9), ("join", 9)), policy="resolve"
            ),
            operations=90,
            seed=3,
        )
        report = api.run(spec)
        assert report.scenario == "reconfig-custom"
        assert [epoch["n"] for epoch in report.epochs] == [25, 16, 25]
        assert report.consistent

    def test_membership_and_scenario_are_mutually_exclusive(self):
        with pytest.raises(InvalidParameterError):
            api.WorkloadSpec(
                system="mgrid",
                params={"side": 5, "b": 1},
                scenario="crash",
                membership=api.MembershipSpec(events=(("sever", 1),)),
            )


class TestMembershipSpec:
    def test_json_round_trip(self):
        spec = api.MembershipSpec(
            events=(("sever", 9), ("join", 9)),
            fractions=(0.5, 0.25, 0.25),
            policy="resolve",
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert api.MembershipSpec.from_dict(payload) == spec
        assert spec.num_epochs == 3

    def test_from_dict_accepts_pairs(self):
        spec = api.MembershipSpec.from_dict(
            {"events": [["join", 2]], "policy": "uniform"}
        )
        assert spec.events == (("join", 2),)
        assert spec.policy == "uniform"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            api.MembershipSpec(events=())
        with pytest.raises(InvalidParameterError):
            api.MembershipSpec(events=(("shrink", 1),))
        with pytest.raises(InvalidParameterError):
            api.MembershipSpec(events=(("sever", 0),))
        with pytest.raises(InvalidParameterError):
            api.MembershipSpec(events=(("sever", 1),), fractions=(1.0,))
        with pytest.raises(InvalidParameterError):
            api.MembershipSpec(events=(("sever", 1),), policy="anneal")

    def test_build_expands_over_a_universe(self):
        system = MGrid(5, 1)
        spec = api.MembershipSpec(events=(("sever", 9), ("join", 9)))
        timeline = spec.build(system.universe)
        assert timeline.num_epochs == 3
        assert timeline.membership.epoch(2).universe == system.universe
