"""Vectorised scenario engine for replicated-register workloads.

The legacy runner simulated workloads one message at a time: every operation
built request objects, broadcast them to the replicas and folded replies in
Python loops.  This engine runs the same *accounting model* as
batched array computations over the bitmask machinery of
:mod:`repro.core.bitset`:

* the access strategy is sampled as **index vectors**
  (:meth:`~repro.core.strategy.Strategy.sample_many`), never as frozensets;
* per-phase server responsiveness is a **boolean matrix**, and per-quorum
  survival is one bit-sliced pass over the support's member rows
  (:meth:`~repro.core.bitset.BitsetEngine.quorums_alive`);
* quorum success, per-server access tallies and the consistency check are
  computed with ``bincount`` / fancy-indexing / packed-``uint64`` popcounts
  instead of per-message Python loops.

Operation semantics (one operation = one row of the batch)
----------------------------------------------------------
Each operation samples a quorum from the access strategy.  If every member is
responsive in the operation's phase, the operation succeeds there.  Otherwise
the client has observed silent servers; the engine models the failure
detector of :class:`~repro.simulation.client.ProtocolCore` in its idealised
limit — the retry samples from the strategy *restricted to fully-responsive
quorums* (renormalised), so an operation fails only when **no** supported
quorum is alive in its phase.  This preserves the resilience property the
protocol layer achieves by steering away from suspected servers (``f = MT - 1``
crashes never cost availability), while staying a pure array computation.
Failed operations charge all ``max_attempts`` probes to the attempted tally.

Consistency is checked with the masking-quorum vouching rule: a successful
read returns the pair vouched for by at least ``b + 1`` members of its
quorum.  Correct members of the read quorum that also belong to the last
successful write's quorum vouch for the latest value; Byzantine members vouch
for a forged pair with an enormous timestamp, either all together
(``"fabricate"``) or in two conflicting camps (``"equivocate"``).  A read is a
*violation* when the forged camp reaches ``b + 1`` vouchers inside the quorum,
and *stale* when the latest value falls short of ``b + 1`` honest vouchers.
Within the masking bound (Lemma 3.6) neither can happen, matching the
protocol-level simulator.

Determinism
-----------
``run_batch(..., mode="sequential")`` executes the identical semantics one
operation at a time with Python integers and sets — the legacy-style
per-operation path.  Both modes consume the same pre-drawn random schedule,
so for any seed they produce **bit-for-bit identical**
:class:`WorkloadResult` objects; the agreement test in
``tests/test_simulation_engine.py`` locks this in.

``docs/simulation.md`` documents the engine, the scenario suite and how the
measured quantities relate to Definition 3.8 / Definition 3.10.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import bitset as bitset_mod
from repro.core.load import exact_load
from repro.core.masking import vouch_threshold
from repro.core.quorum_system import QuorumSystem
from repro.core.strategy import Strategy
from repro.exceptions import SimulationError
from repro.simulation.faults import FaultScenario, check_byzantine_budget
from repro.simulation.scenarios import WorkloadScenario, fault_free_scenario

__all__ = ["WorkloadResult", "resolve_strategy", "run_batch"]


@dataclass
class WorkloadResult:
    """Aggregate statistics of one workload run.

    Attributes
    ----------
    operations:
        Total number of operations attempted (reads + writes).
    successful_reads / successful_writes:
        Operations that found a responsive quorum and completed.
    failed_operations:
        Operations that ran out of quorum attempts (unavailability).
    consistency_violations:
        Successful reads that returned something other than the latest
        successfully written value.  Must be zero whenever the number of
        Byzantine servers is at most ``b``.
    stale_reads:
        Reads that returned an older written value (possible only under
        failures mid-write; counted separately from violations).
    empirical_load:
        The busiest server's access frequency: the fraction of *successful*
        operations whose quorum contained that server.  This is the
        empirical counterpart of ``L_w(Q)`` (Definition 3.8) for the access
        strategy the clients actually used.
    per_server_load:
        Access frequency of every server, normalised by successful
        operations only (failed attempts are excluded, so the values are
        genuine access frequencies and never exceed 1).
    per_server_messages:
        Raw message deliveries per server divided by the total operation
        count (includes retries and the two-phase writes, so it exceeds the
        quorum-access frequency).
    per_server_attempted:
        Diagnostic tally: quorum accesses per server counting *every*
        attempt, failed operations included, normalised by total operations.
        This is the quantity the pre-fix runner conflated with the load.
    """

    operations: int
    successful_reads: int
    successful_writes: int
    failed_operations: int
    consistency_violations: int
    stale_reads: int
    empirical_load: float
    per_server_load: dict = field(default_factory=dict)
    per_server_messages: dict = field(default_factory=dict)
    per_server_attempted: dict = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of operations that completed successfully."""
        if self.operations == 0:
            return 0.0
        return (self.successful_reads + self.successful_writes) / self.operations

    @property
    def is_consistent(self) -> bool:
        """Whether no read ever returned a fabricated or unwritten value."""
        return self.consistency_violations == 0

    def tallies(self, name: str = "per_server_load") -> dict:
        """The integer per-server tallies behind one of the frequency fields.

        Every per-server frequency is a tally over a denominator —
        successful operations for ``per_server_load``, all operations for
        ``per_server_attempted`` / ``per_server_messages`` — and the
        division is exact enough that rounding restores the integer.
        """
        weight = self.operations
        if name == "per_server_load":
            weight = max(1, self.successful_reads + self.successful_writes)
        return {
            server: round(frequency * weight)
            for server, frequency in getattr(self, name).items()
        }

    @classmethod
    def fold(cls, parts: Sequence[WorkloadResult], **extra: Any) -> WorkloadResult:
        """Combine consecutive segments of one run (rounds, epochs) into a whole.

        Counters add; per-server :meth:`tallies` add and are renormalised by
        the whole's denominator, so the result is what one run over all the
        segments would have reported and a one-part fold is the identity.
        A server absent from a segment (a membership epoch it was severed
        in) counts zero there.  ``extra`` fills the fields a subclass adds.
        """
        operations = sum(part.operations for part in parts)
        successful = sum(part.successful_reads + part.successful_writes for part in parts)

        def frequencies(name: str, total: int) -> dict:
            summed: Counter = Counter()
            for part in parts:
                summed.update(part.tallies(name))
            return {server: tally / total for server, tally in summed.items()}

        per_server_load = frequencies("per_server_load", max(1, successful))
        return cls(
            operations=operations,
            successful_reads=sum(part.successful_reads for part in parts),
            successful_writes=sum(part.successful_writes for part in parts),
            failed_operations=sum(part.failed_operations for part in parts),
            consistency_violations=sum(part.consistency_violations for part in parts),
            stale_reads=sum(part.stale_reads for part in parts),
            empirical_load=max(per_server_load.values(), default=0.0),
            per_server_load=per_server_load,
            per_server_messages=frequencies("per_server_messages", operations),
            per_server_attempted=frequencies("per_server_attempted", operations),
            **extra,
        )


def resolve_strategy(system: QuorumSystem, strategy: Strategy | str | None) -> Strategy:
    """Resolve a strategy specification into a :class:`Strategy`.

    ``None`` or ``"uniform"`` gives the uniform strategy over the system's
    quorums (the legacy runner's default); ``"optimal"`` wires in the
    load-optimal strategy of the :func:`~repro.core.load.exact_load` LP, so
    workloads can be driven at the system's actual ``L(Q)``; a
    :class:`Strategy` instance is used as given.

    For an :class:`~repro.core.quorum_system.ImplicitQuorumSystem` the
    default resolves to the system's *sampled support strategy* (the
    empirical estimate of the construction's access strategy — there is no
    full quorum list to be uniform over), and ``"optimal"`` raises the
    exact-LP budget :class:`~repro.exceptions.ComputationError` from
    :func:`~repro.core.load.exact_load` unless the base family is small
    enough to enumerate.
    """
    if strategy is None or strategy == "uniform":
        if getattr(system, "is_implicit", False):
            return system.support_strategy()
        return Strategy.uniform_over_system(system)
    if strategy == "optimal":
        optimal = exact_load(system).strategy
        if optimal is None:
            raise SimulationError(
                f"exact_load produced no strategy for {system.name}"
            )
        return optimal
    if isinstance(strategy, Strategy):
        return strategy
    raise SimulationError(
        f"strategy must be None, 'uniform', 'optimal' or a Strategy, got {strategy!r}"
    )


def _as_workload_scenario(scenario) -> WorkloadScenario:
    if scenario is None:
        return fault_free_scenario()
    if isinstance(scenario, FaultScenario):
        return WorkloadScenario.from_fault_scenario(scenario)
    if not isinstance(scenario, WorkloadScenario):
        raise SimulationError(
            f"scenario must be a FaultScenario or WorkloadScenario, got {type(scenario).__name__}"
        )
    return scenario


@dataclass(frozen=True)
class _Schedule:
    """The pre-drawn randomness both execution modes consume.

    Draw order is fixed (operation-type uniforms, then ``max_attempts``
    attempt uniforms per operation, row-major, then steering uniforms) so a
    seed determines the schedule regardless of mode.  Only the attempts that
    are read are inverted into support indices: every operation's first
    probe, and the further probes of the retry rows, the operations whose
    phase has no live quorum.  Every other operation succeeds on its first
    probe or its steered retry, so its later attempts are never read.
    """

    op_draws: np.ndarray  # (T,) uniforms deciding read vs write
    first_attempt: np.ndarray  # (T,) support index of every first probe
    retry_attempts: np.ndarray  # (R, max_attempts - 1) later probes, retry rows in order
    steer_draws: np.ndarray  # (T,) uniforms for the responsive-restricted retry


def _sample_schedule(
    strategy: Strategy,
    rng: np.random.Generator,
    max_attempts: int,
    tables: _PhaseTables,
    phase_of_op: np.ndarray,
) -> _Schedule:
    op_draws = rng.random(len(phase_of_op))
    (retry_rows,) = (~tables.any_alive[phase_of_op]).nonzero()
    first_attempt, retry_attempts = strategy.sample_many(
        rng, (len(phase_of_op), max_attempts), full_rows=retry_rows
    )
    return _Schedule(
        op_draws=op_draws,
        first_attempt=first_attempt,
        retry_attempts=retry_attempts,
        steer_draws=rng.random(len(phase_of_op)),
    )


@dataclass(frozen=True)
class _PhaseTables:
    """Per-phase fault state, pre-resolved against the strategy's support."""

    crashed_rows: np.ndarray  # (P, n) bool
    alive: np.ndarray  # (P, m) bool: support quorum fully responsive
    any_alive: np.ndarray  # (P,) bool
    last_alive: np.ndarray  # (P,) int: highest alive support index (-1 if none)
    steer_cumulative: list  # per phase: cumsum of probs restricted to alive
    crashed_masks: tuple  # per phase int bitmask
    forged_camp_masks: tuple  # per phase: tuple of int bitmasks (colluding camps)
    correct_masks: tuple  # per phase int bitmask of non-Byzantine servers
    forged_camp_words: list  # per phase: (num_camps, words) packed uint64
    correct_words: np.ndarray  # (P, words) packed uint64


def _split_equivocating_camps(byzantine_positions: list[int]) -> tuple[int, int]:
    """Split Byzantine bit positions into two colluding camps (alternating)."""
    camp_a = camp_b = 0
    for rank, position in enumerate(sorted(byzantine_positions)):
        if rank % 2 == 0:
            camp_a |= 1 << position
        else:
            camp_b |= 1 << position
    return camp_a, camp_b


def _build_phase_tables(
    system: QuorumSystem,
    strategy: Strategy,
    scenario: WorkloadScenario,
) -> _PhaseTables:
    universe = system.universe
    n = universe.size
    engine = strategy.support_engine(universe)
    num_support = engine.num_quorums
    full_mask = (1 << n) - 1

    crashed_rows = np.zeros((scenario.num_phases, n), dtype=bool)
    crashed_masks = []
    forged_camp_masks = []
    correct_masks = []
    for phase_index, phase in enumerate(scenario.phases):
        crashed_positions = list(universe.indices_of(phase.crashed))
        crashed_rows[phase_index, crashed_positions] = True
        crashed_masks.append(bitset_mod.mask_of(phase.crashed, universe))
        byzantine_positions = list(universe.indices_of(phase.byzantine))
        byzantine_mask = bitset_mod.mask_of(phase.byzantine, universe)
        if not byzantine_positions:
            camps: tuple[int, ...] = ()
        elif scenario.byzantine_model == "equivocate":
            camps = tuple(
                camp for camp in _split_equivocating_camps(byzantine_positions) if camp
            )
        else:
            camps = (byzantine_mask,)
        forged_camp_masks.append(camps)
        correct_masks.append(full_mask & ~byzantine_mask)

    alive = engine.quorums_alive(crashed_rows)
    any_alive = alive.any(axis=1)
    last_alive = np.where(
        any_alive, (num_support - 1) - np.argmax(alive[:, ::-1], axis=1), -1
    ).astype(np.int64)
    steer_cumulative = [
        np.cumsum(strategy.probabilities * alive[phase_index])
        for phase_index in range(scenario.num_phases)
    ]
    forged_camp_words = [
        np.stack([bitset_mod.pack_mask(camp, n) for camp in camps])
        if camps
        else np.zeros((0, max(1, -(-n // 64))), dtype=np.uint64)
        for camps in forged_camp_masks
    ]
    correct_words = np.stack(
        [bitset_mod.pack_mask(mask, n) for mask in correct_masks]
    )
    return _PhaseTables(
        crashed_rows=crashed_rows,
        alive=alive,
        any_alive=any_alive,
        last_alive=last_alive,
        steer_cumulative=steer_cumulative,
        crashed_masks=tuple(crashed_masks),
        forged_camp_masks=tuple(forged_camp_masks),
        correct_masks=tuple(correct_masks),
        forged_camp_words=forged_camp_words,
        correct_words=correct_words,
    )


def _steered_index(cumulative: np.ndarray, draw, last_alive: int):
    """Index of the responsive-restricted retry quorum (shared by both modes).

    Inverts the cumulative distribution of the strategy restricted to alive
    quorums; the clip guards the float edge where ``draw * total`` rounds up
    to the total itself.
    """
    total = cumulative[-1]
    index = np.searchsorted(cumulative, draw * total, side="right")
    return np.minimum(index, last_alive)


def run_batch(
    system: QuorumSystem,
    *,
    b: int,
    num_operations: int,
    scenario: FaultScenario | WorkloadScenario | None,
    strategy: Strategy | str | None,
    rng: np.random.Generator,
    write_fraction: float,
    max_attempts: int,
    allow_overload: bool,
    mode: str,
    register_installed: bool = False,
) -> WorkloadResult:
    """Run one batched read/write workload under a fault scenario.

    The core behind :func:`repro.simulation.runner.run_workload`, whose
    docstring describes the parameters; it runs adaptive rounds and
    membership epochs as a sequence of batches on one continuing ``rng``
    stream.  ``register_installed`` (passed by the epoch loop only) starts
    the batch with the register already installed at every server, as after
    a reconfiguration's hand-over: no write is forced, and a read before the
    batch's first write is vouched by every correct member of its quorum.
    """
    if num_operations <= 0:
        raise SimulationError(f"num_operations must be positive, got {num_operations}")
    if not 0.0 <= write_fraction <= 1.0:
        raise SimulationError(f"write_fraction must lie in [0, 1], got {write_fraction}")
    if max_attempts < 1:
        raise SimulationError(f"max_attempts must be >= 1, got {max_attempts}")
    scenario = _as_workload_scenario(scenario)
    check_byzantine_budget(scenario.max_byzantine, b, allow_overload=allow_overload)
    if mode not in ("vectorised", "sequential"):
        raise SimulationError(f"mode must be 'vectorised' or 'sequential', got {mode!r}")
    scenario.validate_against(system.universe)
    strategy = resolve_strategy(system, strategy)
    tables = _build_phase_tables(system, strategy, scenario)
    phase_of_op = scenario.phase_of_operations(num_operations)
    schedule = _sample_schedule(strategy, rng, max_attempts, tables, phase_of_op)

    run = _run_sequential if mode == "sequential" else _run_vectorised
    return run(
        system,
        strategy,
        scenario,
        tables,
        phase_of_op,
        schedule,
        b,
        write_fraction,
        register_installed,
    )


def _assemble_result(
    system: QuorumSystem,
    *,
    num_operations: int,
    successful_reads: int,
    successful_writes: int,
    failed: int,
    violations: int,
    stale: int,
    successful_counts: np.ndarray,
    attempted_counts: np.ndarray,
    message_counts: np.ndarray,
) -> WorkloadResult:
    universe = system.universe
    successful = max(1, successful_reads + successful_writes)
    per_server_load = {
        server_id: int(successful_counts[position]) / successful
        for position, server_id in enumerate(universe)
    }
    per_server_attempted = {
        server_id: int(attempted_counts[position]) / num_operations
        for position, server_id in enumerate(universe)
    }
    per_server_messages = {
        server_id: int(message_counts[position]) / num_operations
        for position, server_id in enumerate(universe)
    }
    return WorkloadResult(
        operations=num_operations,
        successful_reads=successful_reads,
        successful_writes=successful_writes,
        failed_operations=failed,
        consistency_violations=violations,
        stale_reads=stale,
        empirical_load=max(per_server_load.values()),
        per_server_load=per_server_load,
        per_server_messages=per_server_messages,
        per_server_attempted=per_server_attempted,
    )


def _run_vectorised(
    system: QuorumSystem,
    strategy: Strategy,
    scenario: WorkloadScenario,
    tables: _PhaseTables,
    phase_of_op: np.ndarray,
    schedule: _Schedule,
    b: int,
    write_fraction: float,
    register_installed: bool,
) -> WorkloadResult:
    universe = system.universe
    engine = strategy.support_engine(universe)
    incidence = engine.incidence_matrix().astype(np.int64)
    packed = engine.packed()
    num_support = engine.num_quorums
    num_operations = len(phase_of_op)

    first_attempt = schedule.first_attempt
    first_alive = tables.alive[phase_of_op, first_attempt]
    success = tables.any_alive[phase_of_op]
    needs_steer = success & ~first_alive

    # Responsive-restricted retry, phase by phase (phases are few).
    accessed = first_attempt.copy()
    for phase_index in range(scenario.num_phases):
        rows = np.nonzero(needs_steer & (phase_of_op == phase_index))[0]
        if rows.size:
            accessed[rows] = _steered_index(
                tables.steer_cumulative[phase_index],
                schedule.steer_draws[rows],
                int(tables.last_alive[phase_index]),
            )

    # Operation types: an operation is a write when its uniform falls below
    # the write fraction OR nothing is installed and no write has succeeded
    # yet; since success is a pure function of the phase, "no successful
    # write yet" is exactly "at or before the first successful operation".
    op_index = np.arange(num_operations)
    is_write = schedule.op_draws < write_fraction
    if not register_installed:
        first_success = int(np.argmax(success)) if success.any() else num_operations
        is_write |= op_index <= first_success

    successful_writes = int(np.count_nonzero(success & is_write))
    successful_reads = int(np.count_nonzero(success & ~is_write))
    failed = int(np.count_nonzero(~success))

    # Per-server tallies: quorum-index histograms pushed through the
    # incidence matrix.  Successful accesses count the quorum actually used;
    # the attempted tally additionally charges the failed first probes and
    # the exhausted attempt budget of failed operations.
    successful_quorum_counts = np.bincount(accessed[success], minlength=num_support)
    successful_counts = successful_quorum_counts @ incidence

    attempted_quorum_counts = np.bincount(first_attempt, minlength=num_support)
    attempted_quorum_counts += np.bincount(
        accessed[needs_steer], minlength=num_support
    )
    if schedule.retry_attempts.size:
        attempted_quorum_counts += np.bincount(
            schedule.retry_attempts.ravel(), minlength=num_support
        )
    attempted_counts = attempted_quorum_counts @ incidence

    # Message deliveries: every probe sends one request per quorum member
    # (the timestamp/read query), and every successful write additionally
    # broadcasts the write to its quorum.
    write_quorum_counts = np.bincount(
        accessed[success & is_write], minlength=num_support
    )
    message_counts = attempted_counts + write_quorum_counts @ incidence

    # Consistency of successful reads, by the vouching rule.
    violations = 0
    stale = 0
    read_rows = np.nonzero(success & ~is_write)[0]
    if read_rows.size:
        last_write_op = np.maximum.accumulate(
            np.where(success & is_write, op_index, -1)
        )
        write_of_read = last_write_op[read_rows]
        read_quorums = accessed[read_rows]
        # Before the first write every server holds the installed register,
        # so the read's own quorum stands in for the write quorum.
        write_quorums = np.where(
            write_of_read >= 0, accessed[write_of_read], read_quorums
        )
        read_phases = phase_of_op[read_rows]

        forged_vouch = np.zeros(read_rows.size, dtype=np.int64)
        for phase_index in range(scenario.num_phases):
            camp_words = tables.forged_camp_words[phase_index]
            if camp_words.shape[0] == 0:
                continue
            in_phase = np.nonzero(read_phases == phase_index)[0]
            if not in_phase.size:
                continue
            camp_counts = np.bitwise_count(
                packed[read_quorums[in_phase], None, :] & camp_words[None, :, :]
            ).sum(axis=2, dtype=np.int64)
            forged_vouch[in_phase] = camp_counts.max(axis=1)

        vouch = vouch_threshold(b)
        corrupted = forged_vouch >= vouch
        honest_vouch = engine.intersection_counts(
            read_quorums, write_quorums, tables.correct_words[read_phases]
        )
        violations = int(np.count_nonzero(corrupted))
        stale = int(np.count_nonzero(~corrupted & (honest_vouch < vouch)))

    return _assemble_result(
        system,
        num_operations=num_operations,
        successful_reads=successful_reads,
        successful_writes=successful_writes,
        failed=failed,
        violations=violations,
        stale=stale,
        successful_counts=successful_counts,
        attempted_counts=attempted_counts,
        message_counts=message_counts,
    )


def _run_sequential(
    system: QuorumSystem,
    strategy: Strategy,
    scenario: WorkloadScenario,
    tables: _PhaseTables,
    phase_of_op: np.ndarray,
    schedule: _Schedule,
    b: int,
    write_fraction: float,
    register_installed: bool,
) -> WorkloadResult:
    """Per-operation reference path: same semantics, Python-loop execution.

    Consumes the same pre-drawn schedule as the vectorised path and works on
    plain ``int`` bitmasks, so any divergence between the two is a logic bug,
    not noise — the determinism tests assert bit-for-bit equality.
    """
    universe = system.universe
    n = universe.size
    support_masks = strategy.support_masks(universe)
    num_support = len(support_masks)
    num_operations = len(phase_of_op)

    # Lazily-computed per-phase facts, from the int masks alone.
    phase_alive_any: dict[int, bool] = {}
    phase_last_alive: dict[int, int] = {}

    def quorum_alive(phase_index: int, support_index: int) -> bool:
        return not support_masks[support_index] & tables.crashed_masks[phase_index]

    def any_alive(phase_index: int) -> bool:
        if phase_index not in phase_alive_any:
            last = -1
            for support_index in range(num_support):
                if quorum_alive(phase_index, support_index):
                    last = support_index
            phase_alive_any[phase_index] = last >= 0
            phase_last_alive[phase_index] = last
        return phase_alive_any[phase_index]

    vouch = vouch_threshold(b)
    successful_reads = 0
    successful_writes = 0
    failed = 0
    violations = 0
    stale = 0
    written = register_installed
    holders = (1 << n) - 1  # every server holds an installed register
    successful_quorum_counts = [0] * num_support
    attempted_quorum_counts = [0] * num_support
    write_quorum_counts = [0] * num_support
    retry_attempts = iter(schedule.retry_attempts.tolist())

    for operation in range(num_operations):
        phase_index = int(phase_of_op[operation])
        first = int(schedule.first_attempt[operation])
        attempted_quorum_counts[first] += 1

        if quorum_alive(phase_index, first):
            succeeded, accessed = True, first
        elif any_alive(phase_index):
            accessed = int(
                _steered_index(
                    tables.steer_cumulative[phase_index],
                    schedule.steer_draws[operation],
                    phase_last_alive[phase_index],
                )
            )
            attempted_quorum_counts[accessed] += 1
            succeeded = True
        else:
            succeeded, accessed = False, -1
            for attempt in next(retry_attempts):
                attempted_quorum_counts[attempt] += 1

        is_write = bool(schedule.op_draws[operation] < write_fraction) or not written
        if not succeeded:
            failed += 1
            continue
        successful_quorum_counts[accessed] += 1
        if is_write:
            successful_writes += 1
            write_quorum_counts[accessed] += 1
            written = True
            holders = support_masks[accessed]
            continue
        successful_reads += 1
        read_mask = support_masks[accessed]
        forged_vouch = max(
            (
                (read_mask & camp).bit_count()
                for camp in tables.forged_camp_masks[phase_index]
            ),
            default=0,
        )
        if forged_vouch >= vouch:
            violations += 1
            continue
        honest_vouch = (
            read_mask & holders & tables.correct_masks[phase_index]
        ).bit_count()
        if honest_vouch < vouch:
            stale += 1

    def counts_to_servers(quorum_counts: list[int]) -> np.ndarray:
        server_counts = np.zeros(n, dtype=np.int64)
        for support_index, count in enumerate(quorum_counts):
            if count:
                for position in bitset_mod.iter_bit_indices(support_masks[support_index]):
                    server_counts[position] += count
        return server_counts

    successful_counts = counts_to_servers(successful_quorum_counts)
    attempted_counts = counts_to_servers(attempted_quorum_counts)
    message_counts = attempted_counts + counts_to_servers(write_quorum_counts)

    return _assemble_result(
        system,
        num_operations=num_operations,
        successful_reads=successful_reads,
        successful_writes=successful_writes,
        failed=failed,
        violations=violations,
        stale=stale,
        successful_counts=successful_counts,
        attempted_counts=attempted_counts,
        message_counts=message_counts,
    )
