"""The communication-round loop: select, train locally, gate uploads, fuse, mix.

One round, mirroring a synchronous implementation:

1. the server picks ``s`` of the ``n`` devices uniformly without replacement;
2. each picked device runs ``E`` local epochs of per-sample SGD from its
   current parameters, producing a local update (the picked devices of
   every job in flight train together in one batched call, see below);
3. (a gating variant only) each picked device scores the last broadcast
   global model against its local update on its private holdout and uploads
   with probability ``exp(-gap / gap_scale)`` (a job's picked devices are
   scored in one batched call, see ``upload_gate.gate_proxies``, and their
   gaps and probabilities are one array pass each);
4. the server fuses the received updates into the new global model (an empty
   round leaves it unchanged);
5. every picked device folds the new global model into its parameters:
   plain averaging replaces them outright, a mixing variant blends per
   coordinate through a sampled mask;
6. metrics are recorded against the pooled-data optimum.  A non-finite
   trained row, fused model or metric is divergence, which ``run_round``'s
   finite checks alone find (the kernel returns a diverged row as it is).

Device state is held as arrays indexed by device id (``Devices``), and each
step acts on the rows of the devices picked that round.  ``run`` calls an
optional ``observer(record, server, devices, extras)`` after every round with
that ``Devices`` record; ``extras`` holds the picked ids (``"selected"``),
their trained parameters by id (``"locals"``) and, for a gating variant,
each one's gap, upload probability and decision by id (``"gate"``).

``run_jobs`` advances the jobs of one experiment, which differ only in
algorithm and seed, in lockstep, and ``run`` is its one-job case.  Every
job's device parameters and step counts are views into one (J, n, P) and
one (J, n) array.  Each round, every run seed with a live job takes one
round of draws from its plan, which all its live jobs read (see below); one
``run_local_epochs`` call trains the picked rows of all of them,
reading each shard in place in the pooled training set; and one
``run_round`` call runs steps 3-6 for all of them as whole-array operations
with a leading job axis: every job picks ``s`` devices, so the weights are
(J, s) and the trained rows (J, s, P).  What these derive from the live
jobs and their picks alone (the rows, the shards with the kernel's step
layout, each gating job's eval shards with the gate's row map, the record
weights) is one batch (``_Batch``), rebuilt only when the live jobs or any
job's picks change: at full participation once per set of live jobs,
otherwise once per round.  A variant is FedAvg plus what its rule in
``RULES`` adds: a mixing job blends the global model in at the fold, and a
gating job gates and fuses alone, since each fuses its own number of
uploads.  Each batched product and sum is the one a job's arrays give
alone, bitwise (see ``aggregate``, ``empirical_risk``), and the kernel
computes each row on its own (see ``training``), so a job's bytes never
depend on which jobs share its batch.
Divergence is reported as a loop running the jobs one after another would
report it: that of the first job, in job order, to diverge.  The jobs before it record the round and call
their observers; it and the jobs after it neither gate nor update their
servers, and retire.  No row is trained twice.

Every random draw comes from a stream dedicated to one (device, purpose)
pair, spawned deterministically from the run seed, so trajectories are a pure
function of the configuration and independent of scheduling.  The device
streams are derived in one pass: ``stream_states`` starts every row from
numpy's own pool for the run seed, ``SeedSequence(seed).pool``, hashes in
only the (device, purpose) key words of a job as whole ``uint32`` arrays,
and each generator is a ``PCG64`` seeded from its row.
The table is bitwise what ``SeedSequence(seed).spawn`` gives (tested), and
``build_state`` checks one row against numpy's ``SeedSequence`` on every
call, so a numpy whose hash changed raises instead of moving the streams.

The stream keys leave out the variant, so the jobs of one run seed share
their random numbers: the initialisation, the server selections, the sample
indices and, for the mixing variants, the mask uniforms (common random
numbers, which couple the variants' runs seed by seed).  ``run_jobs`` draws
them once per seed: one ``build_state`` call, for the member whose rule
draws the most streams, and one plan.  Each job keeps its own parameters,
step counts and global model, and its ``Devices`` holds the seed's
generators for the streams its rule draws (mask if it mixes, gate if it
gates).

Each run seed draws ahead.  For each block of rounds, ``plan_rounds`` makes
the block's server selections (one ``choice`` per round, in round order), then
one draw per selected device per stream for the whole block: its sample
indices for every round it trains in, and its mask uniforms.  At full
participation (``s == n``) every round selects every device, and the server
stream is not drawn at all, which an observer can see in its state.  Each
device's draws are written device-major, one contiguous run per device, and
one scatter per stream moves them to selection-slot order, so a round takes
its rows by slicing (``RoundDraws``).  Numpy's generators return the same
values for one draw of a summed size as for successive draws of the parts,
so every stream yields the values a round-by-round loop would draw; only
how far a generator has advanced by a given round changes, and an observer
sees the train and mask generators already advanced to the end of its
seed's current block.  Upload decisions still draw from the gate stream one device
at a time.
``PLAN_ENTRIES`` caps the draws held ahead by all the seeds in flight
together, so memory stays bounded at any ``T`` and any job count.
"""

from __future__ import annotations

import gc
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .aggregation import WeightScheme, aggregate, weights
from .annealing import AnnealConfig, mix, sample_mask, selection_probability
from .objectives import Dataset, Objective, accuracy_proxy, optimum_oracle
from .partition import PartitionSpec, partition_with_holdout
from .training import SAMPLE_ORDERS, LrSchedule, Shards, run_local_epochs, sample_indices
from .upload_gate import GateConfig, decide_upload, gate_proxies, performance_gap, upload_probability


class Rule(NamedTuple):
    """What a variant adds to FedAvg: a fold that blends the global model in
    through an annealed mask (``mixes``), and gap-gated uploads (``gates``)."""

    mixes: bool
    gates: bool


# every variant by name, in the order the error messages list them; any two
# rules are nested, one's streams containing the other's (see ``run_jobs``)
RULES = {"fedavg": Rule(mixes=False, gates=False), "safl": Rule(True, False), "safl_extended": Rule(True, True)}

LOCAL_SOLVERS = ("sgd", "oracle")

# the most entries (sample indices plus mask uniforms) drawn ahead by all the
# run seeds in flight: a seed's block holds PLAN_ENTRIES // seeds, and at least one round
PLAN_ENTRIES = 2**17


class DivergenceError(FloatingPointError):
    """A job's trained parameters, fused model or metrics left the finite
    range in round ``round_index``."""

    def __init__(self, message: str, round_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index


@dataclass(frozen=True)
class SimConfig:
    objective: Objective
    partition: PartitionSpec
    selected_per_round: int
    rounds: int
    local_epochs: int = 1
    algorithm: str = "fedavg"
    anneal: AnnealConfig = AnnealConfig()
    gate: GateConfig | None = None
    weight_scheme: WeightScheme = WeightScheme("uniform")
    lr: LrSchedule = LrSchedule("constant", 0.01)
    seed: int = 0
    sample_order: str = "iid_draw"
    local_solver: str = "sgd"
    holdout_fraction: float = 0.2
    init_scale: float = 0.1
    early_stop_mse: float | None = None

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def rule(self) -> Rule:
        return RULES[self.algorithm]

    def __post_init__(self):
        if not (1 <= self.selected_per_round <= self.n):
            raise ValueError("selected_per_round must lie in [1, n]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.algorithm not in RULES:
            raise ValueError(f"algorithm must be one of {', '.join(RULES)}, not {self.algorithm!r}")
        if self.local_solver not in LOCAL_SOLVERS:
            raise ValueError(f"unknown local_solver {self.local_solver!r}")
        if self.sample_order not in SAMPLE_ORDERS:
            raise ValueError(f"unknown sample_order {self.sample_order!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        custom = self.weight_scheme.custom
        if custom is not None and len(custom) != self.n:
            raise ValueError(f"custom weights need one entry per device: {len(custom)} for n = {self.n}")
        if self.rule.gates and self.gate is None:
            raise ValueError(f"{self.algorithm} requires a gate configuration")
        if self.local_solver == "sgd" and not self.objective.is_smooth:
            raise ValueError("non-smooth objectives cannot be trained by SGD; use local_solver='oracle'")
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must lie in [0, 1)")
        if not (math.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ValueError("init_scale must be finite and >= 0")
        # mse is never negative, so a limit at or below 0 could never stop a run
        if self.early_stop_mse is not None and not self.early_stop_mse > 0:
            raise ValueError("early_stop_mse must be > 0")


@dataclass(frozen=True)
class Devices:
    """Every device's state, indexed by device id.

    ``params`` (n, param_dim) holds the current parameters and ``steps_done``
    (n,) how many local SGD steps each device has taken, which offsets its
    learning-rate schedule.  Each of ``train_rngs``, ``mask_rngs`` and
    ``gate_rngs`` holds one generator per device, so every random stream
    belongs to one (device, purpose) pair.  A list whose purpose the job's
    rule never draws from is empty: ``mask_rngs`` unless it mixes,
    ``gate_rngs`` unless it gates.  A round updates the arrays in place, on
    the rows of the devices it selected.  The jobs of one run seed share its generator
    objects (see ``run_jobs``), each job holding its own arrays.
    """

    params: np.ndarray
    steps_done: np.ndarray
    train_rngs: list[np.random.Generator]
    mask_rngs: list[np.random.Generator]
    gate_rngs: list[np.random.Generator]


@dataclass
class ServerState:
    global_params: np.ndarray
    rng: np.random.Generator


class RoundRecord(NamedTuple):
    """One job's round: its metrics, its upload count, and its acceptance
    probability (None for a job whose rule does not mix).  A tuple, so that
    ``run_round`` builds a round's records in one pass over its metric
    columns."""

    round_index: int
    mse: float
    accuracy: float
    uploads: int
    selection_prob: float | None
    device_mse: float


@dataclass
class RunResult:
    """A job's trajectory, one ``RoundRecord`` per round it ran, with its
    pooled optimum, its final device and server state, and its device
    initialisations."""

    records: list[RoundRecord]
    w_star: np.ndarray
    devices: Devices
    server: ServerState
    init_params: np.ndarray  # (n, param_dim) snapshot of the device initialisations


# the metrics' model estimate is the same weighted row sum as the server's
# fusion, kept under its own name so that the two can be timed apart
global_estimate = aggregate


@dataclass(frozen=True)
class PreparedProblem:
    """What every (variant, seed) job of one experiment shares: each device's
    training set and eval set (its holdout, or its training set where that
    is empty; ``evals`` is ``train`` itself if every one is), each a row
    range per device of one pooled set, its sample count (train plus
    holdout), and the pooled training set's optimum.

    It depends on the objective, the partition and the holdout fraction,
    never on the algorithm or the run seed.  Every array is read-only, so a
    job that tried to write to a shard would raise instead of changing what
    the other jobs see.
    """

    train: Shards
    evals: Shards
    sizes: np.ndarray
    w_star: np.ndarray


def prepare(
    config: SimConfig,
    dataset: Dataset | None = None,
    shards: list[Dataset] | None = None,
) -> PreparedProblem:
    """Partition and split ``dataset`` per the config, gather each pooled set once, then solve its optimum.

    ``shards`` bypasses the partitioner for tests that need exact shard
    contents: each is a device's training set, with no holdout, so
    ``holdout_fraction`` must be 0.  The caller's arrays stay writable.
    This is the one entry point for explicit shards: ``build_state`` and
    ``run`` take the problem it returns.
    """
    if shards is None:
        if dataset is None:
            raise ValueError("either a dataset or explicit shards are required")
        fits, holds = partition_with_holdout(dataset, config.partition, config.holdout_fraction)
        train = evals = Shards.take(dataset, fits)
        if any(len(rows) for rows in holds):
            evals = Shards.take(dataset, [hold if len(hold) else fit for fit, hold in zip(fits, holds)])
        sizes = train.sizes + [len(rows) for rows in holds]
        sizes.setflags(write=False)
    else:
        if config.holdout_fraction > 0:
            raise ValueError("explicit shards take no holdout; holdout_fraction must be 0")
        train = evals = Shards.pool(shards)
        sizes = train.sizes
    w_star = optimum_oracle(config.objective, train.data)
    w_star.setflags(write=False)
    return PreparedProblem(train, evals, sizes, w_star)


def _problem(config: SimConfig, dataset: Dataset | None, prepared: PreparedProblem | None) -> PreparedProblem:
    if prepared is None:
        return prepare(config, dataset)
    if dataset is not None:
        raise ValueError("pass a prepared problem or the data to prepare, not both")
    return prepared


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the constants
# of entropy mixing (A) and of state generation (B), and the mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def stream_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)`` for
    every row ``key`` of ``keys`` (m, w), w >= 1, as one (m, 4) table.

    Every entry of ``keys`` must fit in one 32-bit word.  A spawned
    sequence hashes the seed's words first, padded with zeros to the pool's 4,
    then the key's, so its pool before the key words is numpy's own
    ``SeedSequence(seed).pool``.  Only the key columns are hashed here, as
    whole columns in wrapping ``uint32`` arithmetic; the 4-word state is
    what a ``PCG64`` seeds from.
    """
    seed = int(seed)
    words = (seed.bit_length() + 31) // 32  # the seed's 32-bit words
    pool = np.repeat(np.random.SeedSequence(seed).pool[:, None], len(keys), axis=1)
    # numpy has taken one hash step per pool word, per cross-mix of two pool
    # words (12) and per pool word for each seed word beyond the pool
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 2**32) % 2**32

    def hashed(value: np.ndarray, mult: int) -> np.ndarray:
        """One hash step of ``value``; the constant advances by ``mult``."""
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult % 2**32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    for word in np.asarray(keys, dtype=np.uint32).T:  # each key word into every pool word
        for row in pool:
            mixed = np.uint32(_MIX_MULT_L) * row - np.uint32(_MIX_MULT_R) * hashed(word, _MULT_A)
            row[:] = mixed ^ (mixed >> 16)
    const = _INIT_B
    state = np.stack([hashed(pool[i % len(pool)], _MULT_B) for i in range(8)], axis=1)
    # word pairs form each uint64 little-endian, whatever the host's order
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateRow(ISeedSequence):
    """A seed sequence whose state is one precomputed row of ``stream_states``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def build_state(
    config: SimConfig,
    dataset: Dataset | None = None,
    prepared: PreparedProblem | None = None,
) -> tuple[Devices, ServerState, Dataset, np.ndarray]:
    """Materialise devices, server, pooled training data, and its optimum.

    ``prepared`` is a problem from ``prepare``, shared with other jobs;
    without one, the problem is prepared here from ``dataset``.

    Every generator is that of ``SeedSequence(config.seed).spawn``'s child
    at its key: the server is child 0 of the root, and device k's init,
    train, mask and gate streams are children 0-3 of its child 1 + k.  The
    device streams' states come from one ``stream_states`` table, and one
    row of it is checked against numpy's own ``SeedSequence``.
    """
    prepared = _problem(config, dataset, prepared)
    if len(prepared.train) != config.n:
        raise ValueError(f"need exactly one shard per device: {len(prepared.train)} for n = {config.n}")

    n, dim = config.n, config.objective.param_dim
    rule = config.rule  # init and train, then what the rule adds: mask, gate
    purposes = (0, 1, *(2,) * rule.mixes, *(3,) * rule.gates)
    keys = np.empty((n, len(purposes), 2), dtype=np.int64)
    keys[..., 0] = np.arange(1, n + 1)[:, None]
    keys[..., 1] = purposes
    keys = keys.reshape(-1, 2)
    states = stream_states(config.seed, keys)
    check = np.random.SeedSequence(config.seed, spawn_key=tuple(keys[-1].tolist()))
    if not np.array_equal(states[-1], check.generate_state(4, np.uint64)):
        raise RuntimeError("stream_states no longer matches numpy's SeedSequence; the streams would change")

    # every generator is a container the cyclic collector tracks, so building
    # thousands at once would set off collections that can free none of them
    collecting = gc.isenabled()
    gc.disable()
    try:
        generators = [np.random.Generator(np.random.PCG64(_StateRow(row))) for row in states]
    finally:
        if collecting:
            gc.enable()
    params = np.empty((n, dim))
    for row, init in zip(params, generators[:: len(purposes)]):
        init.standard_normal(out=row)
    params *= config.init_scale
    drawn = {purpose: generators[i :: len(purposes)] for i, purpose in enumerate(purposes)}
    devices = Devices(params, np.zeros(n, dtype=np.int64), *(drawn.get(purpose, []) for purpose in (1, 2, 3)))
    server_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    return devices, ServerState(np.zeros(dim), server_rng), prepared.train.data, prepared.w_star


@dataclass(frozen=True)
class RoundDraws:
    """One round's random draws, made ahead of it by ``plan_rounds``.

    ``chosen`` holds the selected device ids, sorted: ``arange(n)`` at full
    participation, taken without drawing the server stream.  ``indices``
    holds each chosen device's sample-index stream for the round
    (``E * len(shard)`` entries), concatenated in ``chosen`` order, and is
    None for the oracle solver.  ``uniforms`` (s, ``AnnealConfig.mask_columns``)
    holds each one's mask uniforms, and is None unless the rule mixes.  The
    arrays are views into the block's arrays, which the planner fills
    device-major and moves to this slot order with one scatter per stream.
    """

    chosen: np.ndarray
    indices: np.ndarray | None
    uniforms: np.ndarray | None


def block_rounds(config: SimConfig, problem: PreparedProblem, entries: int | None = None) -> int:
    """Rounds per block of ``plan_rounds``: as many as keep the block's draws
    within ``entries`` entries (default ``PLAN_ENTRIES``), and at least one.

    A round draws at most ``E`` times the ``s`` largest training shards'
    sizes in sample indices, plus ``s`` rows of mask uniforms.
    """
    s = config.selected_per_round
    per_round = 0
    if config.local_solver == "sgd":
        per_round += config.local_epochs * int(np.sort(problem.train.sizes)[-s:].sum())
    if config.rule.mixes:
        per_round += s * config.anneal.mask_columns(config.objective.param_dim)
    return max(1, (PLAN_ENTRIES if entries is None else entries) // max(1, per_round))


def _plan_block(
    config: SimConfig, server: ServerState, devices: Devices, problem: PreparedProblem, count: int
) -> list[RoundDraws]:
    """The draws of the next ``count`` rounds: one draw per chosen device per stream.

    At full participation every round chooses ``arange(n)``, which is what
    the sorted server draw would return, and the server stream is not drawn.
    Each device's draw is written to its own contiguous run of a
    device-major buffer (its slots in round order, the order in which the
    draw is consumed), and one scatter per stream moves the buffer to slot
    order, round-major.  The block's arrays are read-only, since every job
    of a run seed reads them.
    """
    n, s = config.n, config.selected_per_round
    if s == n:
        chosen = np.broadcast_to(np.arange(n), (count, n))
    else:
        chosen = np.array([np.sort(server.rng.choice(n, size=s, replace=False)) for _ in range(count)])
        chosen.setflags(write=False)
    slots = chosen.ravel()  # selection slots, round-major
    by_device = np.argsort(slots, kind="stable")  # the slots, device-major
    counts = np.bincount(slots, minlength=n)
    picked = np.flatnonzero(counts)
    uses = counts[picked]

    indices = [None] * count
    if config.local_solver == "sgd":
        E, sizes = config.local_epochs, problem.train.sizes
        lengths = E * sizes[slots]  # sample indices per slot
        starts = np.cumsum(lengths) - lengths
        major = lengths[by_device]  # the slots' lengths, device-major
        offsets = np.cumsum(major) - major
        buffer = np.empty(int(lengths.sum()), dtype=np.intp)
        runs = E * sizes[picked] * uses  # each device's run in the buffer
        ends = np.cumsum(runs)
        for k, used, a, b in zip(picked.tolist(), uses.tolist(), (ends - runs).tolist(), ends.tolist()):
            buffer[a:b] = sample_indices(int(sizes[k]), E * used, config.sample_order, devices.train_rngs[k])
        # each slot's entries move from its device-major offset to its start
        to = np.repeat(starts[by_device] - offsets, major)
        to += np.arange(len(buffer))
        flat = np.empty_like(buffer)
        flat[to] = buffer
        flat.setflags(write=False)
        bounds = [*starts[::s].tolist(), len(flat)]
        indices = [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    uniforms = [None] * count
    if config.rule.mixes:
        buffer = np.empty((len(slots), config.anneal.mask_columns(config.objective.param_dim)))
        ends = np.cumsum(uses)
        for k, a, b in zip(picked.tolist(), (ends - uses).tolist(), ends.tolist()):
            devices.mask_rngs[k].random(out=buffer[a:b])
        rows = np.empty_like(buffer)
        rows[by_device] = buffer
        rows.setflags(write=False)
        uniforms = rows.reshape(count, s, -1)
    return [RoundDraws(*draws) for draws in zip(chosen, indices, uniforms)]


def plan_rounds(config: SimConfig, server: ServerState, devices: Devices, problem: PreparedProblem, entries: int):
    """Yield ``(round_index, RoundDraws)`` for rounds 1..T, drawn a block at a time.

    A block holds at most ``entries`` drawn entries (see ``block_rounds``).
    It is drawn when its first round is asked for, so a run that stops early
    draws nothing for the blocks after the one it stops in.
    """
    block = block_rounds(config, problem, entries)
    for first in range(1, config.rounds + 1, block):
        count = min(block, config.rounds + 1 - first)
        yield from enumerate(_plan_block(config, server, devices, problem, count), start=first)


def run_round(
    batch: _Batch,
    round_index: int,
    round_draws: list[RoundDraws],
    trained: np.ndarray,
    params: np.ndarray,
    problem: PreparedProblem,
) -> tuple[list[RoundRecord], DivergenceError | None]:
    """Run steps 3-6 of one round for every job of ``batch`` at once.

    ``trained`` (J, s, P) holds the parameters of each job's chosen devices
    after local training, in ``batch.chosen`` order, and ``params`` the stack
    of every job's device parameters, indexed by ``_Job.slot`` (see
    ``run_jobs``).  Fusion, the fold and the metrics act on whole arrays
    over the jobs; each job whose rule gates then scores, decides and fuses
    alone over its row of the fusion, since each fuses its own number of
    uploads, and each whose rule mixes blends at the fold.  The fold
    assembles the round's (J, s, P) new rows once, scatters them into
    ``params`` once, and the metrics read them as assembled.

    ``trained``, the fused models and the metrics are checked for finite
    values as whole arrays; only a round whose ``trained`` fails looks for
    the first job with a non-finite row, and that job and every job after it
    neither gate nor update their servers.  The records of the jobs before
    the first that diverges are built in one pass over the round's metric
    columns, then their observers are called in job order.  Returns those
    records and that job's ``DivergenceError`` (None if none does), which
    names its lowest chosen device with a non-finite row if it diverged in
    training.
    """
    jobs, chosen, rows = batch.jobs, batch.chosen, batch.rows
    config = jobs[0].config
    obj, scheme = config.objective, config.weight_scheme
    servers = [job.result.server for job in jobs]
    flat = params.reshape(-1, params.shape[-1])  # a row per (slot, device)

    # every device an ungated job chose uploads, so the weights of its
    # uploads are those of the chosen set, which the metrics use too
    record_w = batch.record_w
    uploads = np.full(len(jobs), chosen.shape[1])
    gate_info: list[dict[int, dict]] = [{} for _ in jobs]
    diverged = len(jobs)  # the first job whose training diverged
    if not np.isfinite(trained).all():
        diverged = int(np.isfinite(trained).all(axis=(1, 2)).argmin())
    # a nearly divergent run may overflow anywhere below; the finite checks
    # are the divergence authority, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # each row bitwise as alone; a gated job's is then its uploads' fusion
        fused = aggregate(trained, record_w)
        for i in [i for i, job in enumerate(jobs[:diverged]) if job.config.rule.gates]:
            devices, ids = jobs[i].result.devices, chosen[i]
            h_global, h_local = gate_proxies(servers[i].global_params, trained[i], batch.evals[i], obj)
            gaps = performance_gap(h_global, h_local)
            qs = upload_probability(gaps, config.gate.gap_scale).tolist()
            decisions = [decide_upload(q, devices.gate_rngs[k]) for k, q in zip(ids.tolist(), qs)]
            if jobs[i].observer is not None:
                gate_info[i] = {
                    k: {"gap": gap, "q": q, "uploaded": up}
                    for k, gap, q, up in zip(ids.tolist(), gaps.tolist(), qs, decisions)
                }
            uploaded = np.array(decisions, dtype=bool)
            uploads[i] = uploaded.sum()
            if uploads[i]:
                fused[i] = aggregate(trained[i, uploaded], weights(scheme, ids[uploaded], problem.sizes))
            else:  # an empty round leaves the global model as it was
                fused[i] = servers[i].global_params
        for server, model, uploaded in zip(servers[:diverged], fused, uploads.tolist()):
            if uploaded:
                server.global_params = model

        # each job's new rows, (J, s, P): the global model, which the
        # mixing jobs then blend with their local updates
        current = np.repeat(fused[:, None, :], chosen.shape[1], axis=1)
        probs = [None] * len(jobs)
        mixed = [i for i, job in enumerate(jobs) if job.config.rule.mixes]
        if mixed:
            anneal = config.anneal
            p = selection_probability(round_index, anneal.temperature)
            for i in mixed:
                probs[i] = p
            uniforms = np.array([round_draws[i].uniforms for i in mixed])
            masks = sample_mask(uniforms, p, anneal.epsilon, obj.param_dim)
            current[mixed] = mix(masks, fused[mixed], trained[mixed])
        flat[rows] = current

        estimate = global_estimate(current, record_w)
        diffs = current - problem.w_star
        device_mse = (record_w[:, None, :] @ (diffs * diffs).sum(axis=-1)[:, :, None])[:, 0, 0]
        mse = ((estimate - problem.w_star) ** 2).sum(axis=-1)
        accuracy = accuracy_proxy(estimate, problem.train.data, obj)

    fused_ok = np.isfinite(fused).all(axis=-1)
    ok = fused_ok & np.isfinite(mse) & np.isfinite(device_mse)
    ok[diverged:] = False  # they retire; a gated one among them did not gate or fuse
    ran = len(jobs) if ok.all() else int(ok.argmin())  # the jobs before the first to diverge
    columns = (mse[:ran].tolist(), accuracy[:ran].tolist(), uploads[:ran].tolist(), probs, device_mse[:ran].tolist())
    records = list(map(RoundRecord, repeat(round_index), *columns))
    for i, (job, record) in enumerate(zip(jobs, records)):
        if job.observer is not None:
            selected = chosen[i].tolist()
            extras = {"selected": selected, "locals": dict(zip(selected, trained[i])), "gate": gate_info[i]}
            job.observer(record, servers[i], job.result.devices, extras)
    if ran == len(jobs):
        return records, None
    if ran == diverged:
        device = chosen[ran, np.isfinite(trained[ran]).all(axis=-1).argmin()]
        return records, DivergenceError(
            f"device {device} diverged in round {round_index}: parameters diverged during local training",
            round_index=round_index,
        )
    if not fused_ok[ran]:
        return records, DivergenceError(f"aggregate diverged in round {round_index}", round_index=round_index)
    return records, DivergenceError(
        f"metrics diverged in round {round_index}: mse {float(mse[ran])}, device_mse {float(device_mse[ran])}",
        round_index=round_index,
    )


@dataclass(eq=False)
class _Job:
    """One job in flight: its config, the result it grows, its run seed's
    plan (shared with the seed's other jobs), and its slot in the stacked
    device state."""

    config: SimConfig
    result: RunResult
    plan: Iterator[tuple[int, RoundDraws]]
    observer: Callable | None
    slot: int


@dataclass(frozen=True)
class _Batch:
    """The rows that a round trains, those of every live job, and what the
    round derives from them alone:

    - each job's chosen ids (J, s), and their rows of the stacked device
      state seen as one (slots * n, P) array (J, s);
    - the chosen shards, in place in the pooled training set, on which the
      kernel keeps its step layout (see ``Shards.layout``);
    - each gating job's chosen eval shards, in place in the pooled eval set,
      on which the upload gate keeps its row map (see ``Shards.row_map``),
      and None for a job that does not gate;
    - each job's record weights (J, s).

    ``run_jobs`` keeps a batch for as long as the live jobs and their chosen
    ids stay the same."""

    jobs: list[_Job]
    chosen: np.ndarray
    rows: np.ndarray
    shards: Shards
    evals: list[Shards | None]
    record_w: np.ndarray


def _batch(jobs: list[_Job], chosen: np.ndarray, problem: PreparedProblem) -> _Batch:
    config, train, evals = jobs[0].config, problem.train, problem.evals
    ids = chosen.ravel()
    slots = np.array([job.slot for job in jobs])
    return _Batch(
        jobs,
        chosen,
        slots[:, None] * config.n + chosen,
        Shards(train.data, train.starts[ids], train.sizes[ids]),
        [Shards(evals.data, evals.starts[picks], evals.sizes[picks]) if job.config.rule.gates else None
         for job, picks in zip(jobs, chosen)],
        weights(config.weight_scheme, chosen, problem.sizes),
    )


def _train(
    batch: _Batch,
    round_draws: list[RoundDraws],
    params: np.ndarray,
    steps_done: np.ndarray,
    optima: np.ndarray | None,
) -> np.ndarray:
    """The chosen devices of one round of every job of ``batch``, trained:
    (J, s, P), in ``chosen`` order.

    ``params`` and ``steps_done`` are the stacked device state, indexed by
    ``_Job.slot``.  By SGD, the rows of all the jobs train in one
    ``run_local_epochs`` call, which reads each shard in place in the pooled
    training set, and each job's ``steps_done`` advances; a row's result
    does not depend on its batch-mates (see ``training``), and a row that
    diverged comes back non-finite for ``run_round`` to find.  The oracle
    solver takes each shard's row of ``optima``.
    """
    config, chosen, rows = batch.jobs[0].config, batch.chosen, batch.rows
    if optima is not None:
        return optima[chosen]
    trained, _ = run_local_epochs(
        params.reshape(-1, params.shape[-1])[rows.ravel()],
        batch.shards,
        config.objective,
        config.local_epochs,
        config.lr,
        np.concatenate([draws.indices for draws in round_draws]),
        start_steps=steps_done.ravel()[rows.ravel()],
    )
    # each chosen device advances by its steps of the call, E times its shard's size
    steps_done.ravel()[rows] += batch.shards.layout(config.local_epochs).steps.reshape(chosen.shape)
    return trained.reshape(*chosen.shape, -1)


def run_jobs(
    configs: list[SimConfig], problem: PreparedProblem, observers: list | None = None
) -> list[RunResult]:
    """Run jobs that differ only in algorithm and seed, in lockstep; one
    ``RunResult`` per config, each the result of running that job alone.

    Each (algorithm, seed) job appears once: a repeated one raises
    ``ValueError``.  Every job's device parameters and step counts are views
    into one stacked array each, (J, n, P) and (J, n).  The jobs are grouped
    by seed in one pass, and the jobs of one run seed share its streams:
    ``build_state`` runs once per seed, for the job of its group whose rule
    draws the most streams, and each job copies the seed's initialisation
    into its own rows, keeps its own global model, and holds the seed's
    generators for the streams its rule draws.  Every round, each seed with
    a live job takes one round from its one plan, which all its live jobs
    read, one ``run_local_epochs`` call trains every job's chosen rows, and
    one ``run_round`` call gates, fuses, mixes and records the round of them
    all, each as its rule says, calling ``observers[i]``, if any.  A job
    leaves the loop when it stops early; its seed's plan runs on while a
    seed-mate lives.  The plans share ``PLAN_ENTRIES``: each seed's blocks
    hold ``PLAN_ENTRIES // seeds`` entries, so the draws held ahead do not
    grow with the job count.

    Divergence is reported as if the jobs ran one after another: the
    ``DivergenceError`` raised is that of the first job, in ``configs``
    order, that diverges, found by ``run_round``'s finite checks whether
    the job diverged in training or after.  A job that diverges retires
    with every job after it, and the jobs before it run on, since one of
    them may diverge later.
    """
    if not configs:
        raise ValueError("need at least one job")
    first = configs[0]
    for config in configs[1:]:
        if replace(config, algorithm=first.algorithm, seed=first.seed) != first:
            raise ValueError("jobs run in lockstep must differ only in algorithm and seed")
    if len({(config.algorithm, config.seed) for config in configs}) != len(configs):
        raise ValueError("each (algorithm, seed) job may appear only once")
    # a seed's jobs share its streams, so its state and plan are drawn once,
    # for the member whose rule draws the most (any two rules are nested)
    groups: dict[int, list[SimConfig]] = {}
    for config in configs:
        groups.setdefault(config.seed, []).append(config)
    entries = PLAN_ENTRIES // len(groups)
    seeds = {}
    for seed, group in groups.items():
        lead = max(group, key=lambda c: sum(c.rule))
        devices, server, _, w_star = build_state(lead, prepared=problem)
        seeds[seed] = devices, server, w_star, plan_rounds(lead, server, devices, problem, entries)
    params = np.empty((len(configs), first.n, first.objective.param_dim))
    steps_done = np.zeros((len(configs), first.n), dtype=np.int64)
    jobs = []
    for slot, (config, observer) in enumerate(zip(configs, observers or [None] * len(configs), strict=True)):
        devices, server, w_star, plan = seeds[config.seed]
        params[slot] = devices.params
        own = replace(
            devices,
            params=params[slot],
            steps_done=steps_done[slot],
            mask_rngs=devices.mask_rngs if config.rule.mixes else [],
            gate_rngs=devices.gate_rngs if config.rule.gates else [],
        )
        own_server = ServerState(server.global_params.copy(), server.rng)
        jobs.append(_Job(config, RunResult([], w_star, own, own_server, devices.params.copy()), plan, observer, slot))
    optima = None  # the oracle trains every job's device to its shard's optimum, solved once
    if first.local_solver == "oracle":
        optima = np.array([optimum_oracle(first.objective, problem.train.dataset(k)) for k in range(first.n)])

    live, failure, batch, limit = jobs, None, None, first.early_stop_mse
    for r in range(1, first.rounds + 1):
        # a round's draws hold their whole block alive, so the last round's
        # are dropped before any seed draws its next block
        round_draws = drawn = trained = None
        if not live:
            break
        # every seed with a live job draws the round once, for all of them
        drawn = {plan: next(plan)[1] for plan in dict.fromkeys(job.plan for job in live)}
        round_draws = [drawn[job.plan] for job in live]
        chosen = np.array([draws.chosen for draws in round_draws])
        if batch is None or batch.jobs != live or not np.array_equal(batch.chosen, chosen):
            batch = None  # the old batch goes before the new one is built
            batch = _batch(live, chosen, problem)
        trained = _train(batch, round_draws, params, steps_done, optima)
        records, failed = run_round(batch, r, round_draws, trained, params, problem)
        # the live jobs precede any that failed before, so the newest error
        # is that of the first job in order
        failure = failed or failure
        live = live[: len(records)]
        for job, record in zip(live, records):
            job.result.records.append(record)
        if limit is not None and records:
            stopped = np.array([record.mse for record in records]) < limit
            if stopped.any():
                live = list(compress(live, (~stopped).tolist()))
    if failure is not None:
        raise failure
    return [job.result for job in jobs]


def run(
    config: SimConfig,
    dataset: Dataset | None = None,
    observer=None,
    prepared: PreparedProblem | None = None,
) -> RunResult:
    """Run the configured number of rounds on ``dataset`` or a ``prepared``
    problem; a fixed config yields one trajectory."""
    (result,) = run_jobs([config], _problem(config, dataset, prepared), [observer])
    return result
