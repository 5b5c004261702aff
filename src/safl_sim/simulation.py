"""The communication-round loop: select, train locally, gate uploads, fuse, mix.

One round, mirroring a synchronous implementation:

1. the server picks ``s`` of the ``n`` devices uniformly without replacement;
2. each picked device runs ``E`` local epochs of per-sample SGD from its
   current parameters, producing a local update (all picked devices train
   together in one batched call, see ``training``);
3. (``safl_extended`` only) each picked device scores the last broadcast
   global model against its local update on its private holdout and uploads
   with probability ``exp(-gap / gap_scale)``;
4. the server fuses the received updates into the new global model (an empty
   round leaves it unchanged);
5. every picked device folds the new global model into its parameters:
   plain averaging replaces them outright, the annealed variants blend per
   coordinate through a sampled mask;
6. metrics are recorded against the pooled-data optimum.

Every random draw comes from a stream dedicated to one (device, purpose)
pair, spawned deterministically from the run seed, so trajectories are a pure
function of the configuration and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import ModelUpdate, WeightScheme, aggregate, weights
from .annealing import AnnealConfig, mix, sample_mask, selection_probability
from .objectives import Dataset, Objective, optimum_oracle
from .partition import PartitionSpec, partition_with_holdout
from .training import SAMPLE_ORDERS, DivergenceError, LrSchedule, run_local_epochs
from .upload_gate import GateConfig, accuracy_proxy, decide_upload, performance_gap, upload_probability

ALGORITHMS = ("fedavg", "safl", "safl_extended")
LOCAL_SOLVERS = ("sgd", "oracle")


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

    def __post_init__(self):
        if not (1 <= self.selected_per_round <= self.n):
            raise ValueError("selected_per_round must lie in [1, n]")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {', '.join(ALGORITHMS)}, not {self.algorithm!r}")
        if self.local_solver not in LOCAL_SOLVERS:
            raise ValueError(f"unknown local_solver {self.local_solver!r}")
        if self.sample_order not in SAMPLE_ORDERS:
            raise ValueError(f"unknown sample_order {self.sample_order!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        custom = self.weight_scheme.custom
        if custom is not None and len(custom) != self.n:
            raise ValueError(f"custom weights need one entry per device: {len(custom)} for n = {self.n}")
        if self.algorithm == "safl_extended" and self.gate is None:
            raise ValueError("safl_extended requires a gate configuration")
        if self.gate is not None and self.gate.proxy == "holdout_accuracy" and not self.objective.is_classification:
            raise ValueError("gate proxy 'holdout_accuracy' needs a classification objective")
        if self.local_solver == "sgd" and not self.objective.is_smooth:
            raise ValueError("non-smooth objectives cannot be trained by SGD; use local_solver='oracle'")
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must lie in [0, 1)")
        if not (math.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ValueError("init_scale must be finite and >= 0")


@dataclass
class DeviceState:
    device_id: int
    params: np.ndarray
    shard: Dataset
    holdout: Dataset
    full_size: int
    train_rng: np.random.Generator
    mask_rng: np.random.Generator
    gate_rng: np.random.Generator
    steps_done: int = 0

    def eval_set(self) -> Dataset:
        return self.holdout if len(self.holdout) > 0 else self.shard


@dataclass
class ServerState:
    global_params: np.ndarray
    rng: np.random.Generator


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    mse: float
    accuracy: float
    uploads: int
    selection_prob: float | None
    device_mse: float


@dataclass
class RunResult:
    records: list[RoundRecord]
    w_star: np.ndarray
    devices: list[DeviceState]
    server: ServerState
    init_params: np.ndarray  # (n, param_dim) snapshot of the device initialisations


def global_estimate(devices: list[DeviceState], wts: np.ndarray) -> np.ndarray:
    """Weighted average of the devices' current parameter vectors."""
    if len(devices) != len(wts):
        raise ValueError("one weight per device required")
    stacked = np.stack([d.params for d in devices])
    return np.asarray(wts, dtype=np.float64) @ stacked


@dataclass(frozen=True)
class PreparedProblem:
    """What every (variant, seed) job of one experiment shares: each device's
    (train, holdout) pair, the pooled training set and its optimum.

    It depends on the objective, the partition and the holdout fraction,
    never on the algorithm or the run seed.  Every array is read-only, so a
    job that tried to write to a shard would raise instead of changing what
    the other jobs see.
    """

    pairs: tuple[tuple[Dataset, Dataset], ...]
    pooled: Dataset
    w_star: np.ndarray


def _freeze(data: Dataset) -> Dataset:
    data.X.setflags(write=False)
    data.y.setflags(write=False)
    return data


def prepare(
    config: SimConfig,
    dataset: Dataset | None = None,
    shards: list[Dataset] | None = None,
) -> PreparedProblem:
    """Partition and split ``dataset`` per the config, then solve the pooled optimum.

    ``shards`` bypasses the partitioner for tests that need exact shard
    contents: each is a device's training set, with an empty holdout, so
    ``holdout_fraction`` must be 0.
    """
    if shards is None:
        if dataset is None:
            raise ValueError("either a dataset or explicit shards are required")
        pairs = partition_with_holdout(dataset, config.partition, config.holdout_fraction)
    else:
        if config.holdout_fraction > 0:
            raise ValueError("explicit shards take no holdout; holdout_fraction must be 0")
        # copies, so the caller's arrays stay writable
        pairs = [(shard.subset(np.arange(len(shard))), shard.subset(np.arange(0))) for shard in shards]
    # every array here is a fresh copy that only the problem holds, so it is
    # frozen in place; a read-only view of each would cost an extra header
    pairs = tuple((_freeze(train), _freeze(hold)) for train, hold in pairs)
    pooled = _freeze(Dataset.concat([train for train, _ in pairs]))
    w_star = optimum_oracle(config.objective, pooled)
    w_star.setflags(write=False)
    return PreparedProblem(pairs, pooled, w_star)


def build_state(
    config: SimConfig,
    dataset: Dataset | None = None,
    shards: list[Dataset] | None = None,
    prepared: PreparedProblem | None = None,
) -> tuple[list[DeviceState], ServerState, Dataset, np.ndarray]:
    """Materialise devices, server, pooled training data, and its optimum.

    ``prepared`` is a problem shared with other jobs; without one, the
    problem is prepared here from ``dataset`` or ``shards`` (see ``prepare``).
    """
    if prepared is None:
        prepared = prepare(config, dataset, shards)
    elif dataset is not None or shards is not None:
        raise ValueError("pass a prepared problem or the data to prepare, not both")
    if len(prepared.pairs) != config.n:
        raise ValueError(f"need exactly one shard per device: {len(prepared.pairs)} for n = {config.n}")

    obj = config.objective
    root = np.random.SeedSequence(config.seed)
    server_ss, *device_ss = root.spawn(1 + config.n)
    devices = []
    for k, (train, hold) in enumerate(prepared.pairs):
        init_ss, train_ss, mask_ss, gate_ss = device_ss[k].spawn(4)
        init_rng = np.random.default_rng(init_ss)
        params = config.init_scale * init_rng.standard_normal(obj.param_dim)
        devices.append(
            DeviceState(
                device_id=k,
                params=params,
                shard=train,
                holdout=hold,
                full_size=len(train) + len(hold),
                train_rng=np.random.default_rng(train_ss),
                mask_rng=np.random.default_rng(mask_ss),
                gate_rng=np.random.default_rng(gate_ss),
            )
        )
    server = ServerState(
        global_params=np.zeros(obj.param_dim),
        rng=np.random.default_rng(server_ss),
    )
    return devices, server, prepared.pooled, prepared.w_star


def run_round(
    server: ServerState,
    devices: list[DeviceState],
    config: SimConfig,
    round_index: int,
    *,
    pooled: Dataset,
    w_star: np.ndarray,
    observer=None,
) -> RoundRecord:
    """Execute one communication round and return its metrics."""
    obj = config.objective
    chosen = np.sort(server.rng.choice(config.n, size=config.selected_per_round, replace=False))
    selected = [devices[int(k)] for k in chosen]
    stale_global = server.global_params

    if config.local_solver == "oracle":
        trained = [optimum_oracle(obj, dev.shard) for dev in selected]
    else:
        try:
            trained, _ = run_local_epochs(
                [dev.params for dev in selected],
                [dev.shard for dev in selected],
                obj,
                config.local_epochs,
                config.lr,
                [dev.train_rng for dev in selected],
                start_steps=[dev.steps_done for dev in selected],
                order=config.sample_order,
            )
        except DivergenceError as err:
            dev = selected[err.device_index]
            raise DivergenceError(
                f"device {dev.device_id} diverged in round {round_index}: {err}",
                round_index=round_index,
            ) from err
        for dev in selected:
            dev.steps_done += config.local_epochs * len(dev.shard)

    local_updates: dict[int, np.ndarray] = {}
    gate_info: dict[int, dict] = {}
    received: list[ModelUpdate] = []
    for dev, z in zip(selected, trained):
        local_updates[dev.device_id] = z

        uploads_update = True
        if config.algorithm == "safl_extended":
            eval_set = dev.eval_set()
            h_global = accuracy_proxy(stale_global, eval_set, obj, config.gate.proxy)
            h_local = accuracy_proxy(z, eval_set, obj, config.gate.proxy)
            gap = performance_gap(h_global, h_local, config.gate.eps_div)
            q = upload_probability(gap, config.gate.gap_scale)
            uploads_update = decide_upload(q, dev.gate_rng)
            gate_info[dev.device_id] = {"gap": gap, "q": q, "uploaded": uploads_update}
        if uploads_update:
            received.append(ModelUpdate(dev.device_id, z, dev.full_size))

    if received:
        agg_w = weights(config.weight_scheme, received, z_ref=stale_global)
        server.global_params = aggregate(received, agg_w)
        if not np.isfinite(server.global_params).all():
            raise DivergenceError(
                f"aggregate diverged in round {round_index}", round_index=round_index
            )

    p_values = []
    for dev in selected:
        z = local_updates[dev.device_id]
        if config.algorithm == "fedavg":
            dev.params = server.global_params.copy()
        else:
            p = selection_probability(round_index, config.anneal.temperature)
            p_values.append(p)
            mask = sample_mask(obj.param_dim, p, config.anneal.epsilon, dev.mask_rng, config.anneal.mask_mode)
            dev.params = mix(mask, server.global_params, z)

    participant_updates = [
        ModelUpdate(d.device_id, local_updates[d.device_id], d.full_size) for d in selected
    ]
    # metric evaluation may overflow on a nearly divergent run; the finite
    # checks above are the divergence authority, not numpy warnings here
    with np.errstate(over="ignore", invalid="ignore"):
        record_w = weights(config.weight_scheme, participant_updates, z_ref=stale_global)
        estimate = global_estimate(selected, record_w)
        diffs = np.stack([d.params for d in selected]) - w_star
        device_mse = float(record_w @ (diffs * diffs).sum(axis=1))
        proxy_kind = "holdout_accuracy" if obj.is_classification else "inverse_risk"
        record = RoundRecord(
            round_index=round_index,
            mse=float(np.sum((estimate - w_star) ** 2)),
            accuracy=accuracy_proxy(estimate, pooled, obj, proxy_kind),
            uploads=len(received),
            selection_prob=(float(np.mean(p_values)) if p_values else None),
            device_mse=device_mse,
        )
    if observer is not None:
        observer(record, server, devices, {"selected": [d.device_id for d in selected], "locals": local_updates, "gate": gate_info})
    return record


def run(
    config: SimConfig,
    dataset: Dataset | None = None,
    shards: list[Dataset] | None = None,
    observer=None,
    prepared: PreparedProblem | None = None,
) -> RunResult:
    """Run the configured number of rounds; a fixed config yields one trajectory."""
    devices, server, pooled, w_star = build_state(config, dataset, shards, prepared)
    init_params = np.stack([d.params for d in devices])
    records: list[RoundRecord] = []
    for r in range(1, config.rounds + 1):
        record = run_round(server, devices, config, r, pooled=pooled, w_star=w_star, observer=observer)
        records.append(record)
        if config.early_stop_mse is not None and record.mse < config.early_stop_mse:
            break
    return RunResult(
        records=records,
        w_star=w_star,
        devices=devices,
        server=server,
        init_params=init_params,
    )
