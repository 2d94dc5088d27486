"""Synthetic camera/model worlds: generation, payoff sampling, ground-truth oracle.

A ``World`` is immutable once built (its arrays are write-protected). A
perspective schedule leaves it as it is: a run settles the true group of each
camera at each round from the world and the schedule's events once
(``policy._settle``). Payoffs come in two modes:

* ``bernoulli`` - the binary payoff is 1 with probability mu(x.theta).
* ``thresholded-gaussian`` - a noisy accuracy mu(x.theta) + N(0, sigma^2) is
  compared against the accuracy threshold; the induced success probability is
  Phi((mu - threshold)/sigma), which is monotone in mu but not equal to it.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import LinkFunctionSpec, link_eval
from .errors import ConfigError, GenerationError, ScheduleError, typed

PAYOFF_MODES = ("bernoulli", "thresholded-gaussian")
TIERS = ("edge", "cloud")
WORLD_SCHEMA_VERSION = 1
# the most draws of group weights ``generate_world`` makes to meet gamma
MAX_REDRAWS = 10_000


@dataclass(frozen=True)
class VisualModel:
    """A candidate inference model: feature vector, deployment tier, scalar costs."""

    id: int
    features: np.ndarray
    tier: str = "edge"
    bandwidth_cost: float = 0.0
    latency_cost: float = 0.0

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        norm = float(np.linalg.norm(feats))
        if norm > 1.0 + 1e-12:
            feats = feats / norm
        feats = feats.copy()
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        if self.tier not in TIERS:
            raise ConfigError(f"model {self.id}: unknown tier {self.tier!r}")
        if self.bandwidth_cost < 0 or self.latency_cost < 0:
            raise ConfigError(f"model {self.id}: costs must be nonnegative")


@dataclass
class World:
    dimension: int
    camera_groups: np.ndarray          # (N,) ground-truth group index per camera
    group_thetas: np.ndarray           # (g, d) perspective weights, one per group
    catalog: tuple
    dispersion_gamma: float
    payoff_mode: str = "bernoulli"
    accuracy_threshold: float = 0.8
    noise_sigma: float = 0.1
    link: LinkFunctionSpec = field(default_factory=LinkFunctionSpec)

    def __post_init__(self):
        self.camera_groups = np.asarray(self.camera_groups, dtype=int).copy()
        self.group_thetas = np.asarray(self.group_thetas, dtype=float).copy()
        self.camera_groups.setflags(write=False)
        self.group_thetas.setflags(write=False)
        self.catalog = tuple(self.catalog)
        feats = np.array([m.features for m in self.catalog], dtype=float)
        feats.setflags(write=False)
        self.features = feats
        self.bandwidth_costs = np.array([m.bandwidth_cost for m in self.catalog])
        self.tiers = np.array([m.tier for m in self.catalog])
        self.validate()

    @property
    def n_cameras(self) -> int:
        return self.camera_groups.shape[0]

    @property
    def n_groups(self) -> int:
        return self.group_thetas.shape[0]

    @property
    def n_models(self) -> int:
        return len(self.catalog)

    def validate(self):
        n, g, d = self.n_cameras, self.n_groups, self.dimension
        if self.group_thetas.shape != (g, d):
            raise ConfigError(f"group thetas shape {self.group_thetas.shape} inconsistent with d={d}")
        if n < 1 or g < 1 or self.n_models < 1:
            raise ConfigError("world needs at least one camera, one group, and one model")
        if self.camera_groups.min() < 0 or self.camera_groups.max() >= g:
            raise ConfigError("camera group assignment references a nonexistent group")
        norms = np.linalg.norm(self.group_thetas, axis=1)
        if norms.max() > 1.0 + 1e-12:
            raise ConfigError(f"group theta norm {norms.max():.6f} exceeds 1")
        if g > 1:
            dists = np.linalg.norm(
                self.group_thetas[:, None, :] - self.group_thetas[None, :, :], axis=2)
            off = dists[~np.eye(g, dtype=bool)]
            if off.min() < self.dispersion_gamma - 1e-12:
                raise ConfigError(
                    f"group thetas violate the dispersion constant: min distance "
                    f"{off.min():.6f} < gamma {self.dispersion_gamma}")
        if self.payoff_mode not in PAYOFF_MODES:
            raise ConfigError(f"unknown payoff mode {self.payoff_mode!r}")
        if not (0.0 < self.accuracy_threshold < 1.0):
            raise ConfigError(f"accuracy threshold must lie in (0, 1), got {self.accuracy_threshold}")
        if self.noise_sigma < 0:
            raise ConfigError("noise sigma must be nonnegative")
        if self.dispersion_gamma <= 0:
            raise ConfigError("dispersion gamma must be positive")
        for group in range(g if self.payoff_mode == "bernoulli" else 0):
            probs = self.group_success_probs(group)
            if not 0.0 <= probs.min() <= probs.max() <= 1.0:
                raise ConfigError(f"group {group}: the {self.link.kind} link gives success "
                                  f"probabilities in [{probs.min():.6g}, {probs.max():.6g}], "
                                  "outside [0, 1], under Bernoulli payoffs")

    def mean_payoffs(self, camera: int) -> np.ndarray:
        """mu(x_m . theta) for every model, under the camera's current group."""
        theta = self.group_thetas[self.camera_groups[camera]]
        return link_eval(self.link, self.features @ theta)

    def group_success_probs(self, group: int) -> np.ndarray:
        """True per-model success probabilities for cameras in ``group``."""
        mu = link_eval(self.link, self.features @ self.group_thetas[group])
        if self.payoff_mode == "bernoulli":
            return mu
        if self.noise_sigma == 0.0:
            return (mu >= self.accuracy_threshold).astype(float)
        # imported here: scipy.special takes about 0.2 s and 25 MB to load,
        # and only this payoff mode needs it
        from scipy.special import ndtr

        return ndtr((mu - self.accuracy_threshold) / self.noise_sigma)

    def success_probs(self, camera: int) -> np.ndarray:
        """True per-model success probabilities for this camera."""
        return self.group_success_probs(int(self.camera_groups[camera]))


@dataclass(frozen=True)
class PerspectiveSchedule:
    """Discrete camera re-assignments: at round t the camera's weights switch
    to another ground-truth group's vector."""

    events: tuple = ()

    def __post_init__(self):
        events = tuple((int(t), int(cam), int(grp)) for t, cam, grp in self.events)
        rounds = [t for t, _, _ in events]
        if rounds != sorted(rounds):
            raise ScheduleError("schedule events must be sorted by round")
        object.__setattr__(self, "events", events)

    def validate_against(self, world: World):
        for t, cam, grp in self.events:
            if not 0 <= cam < world.n_cameras:
                raise ScheduleError(f"schedule references unknown camera {cam} at round {t}")
            if not 0 <= grp < world.n_groups:
                raise ScheduleError(f"schedule references unknown group {grp} at round {t}")


@dataclass(frozen=True)
class WorldConfig:
    n_groups: int = 2
    n_cameras: int = 8
    dimension: int = 5
    gamma: float = 0.5
    n_models: int = 20
    unit_norm_features: bool = False
    payoff_mode: str = "bernoulli"
    accuracy_threshold: float = 0.8
    noise_sigma: float = 0.1
    link: LinkFunctionSpec = field(default_factory=LinkFunctionSpec)

    def __post_init__(self):
        for name in ("n_groups", "n_cameras", "dimension", "n_models"):
            typed(name, getattr(self, name))
        typed("unit_norm_features", self.unit_norm_features, bool, "a bool")
        for name in ("gamma", "accuracy_threshold", "noise_sigma"):
            typed(name, getattr(self, name), numbers.Real, "a real number")
        if self.n_groups < 1:
            raise ConfigError("need at least one group")
        if self.dimension < 2:
            raise ConfigError("dimension must be at least 2")
        if self.n_cameras < 1 or self.n_models < 1:
            raise ConfigError("need at least one camera and one model")


def _uniform_ball(rng, count: int, dim: int) -> np.ndarray:
    x = rng.standard_normal((count, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radius = rng.random(count) ** (1.0 / dim)
    return x * radius[:, None]


def generate_world(config: WorldConfig, seed: int) -> World:
    """Deterministic world from (config, seed).

    Group weight vectors are drawn uniformly in the unit ball and redrawn
    until every pair is at least gamma apart, at most ``MAX_REDRAWS`` times;
    model features are uniform on the sphere with a per-model magnitude in
    [0.5, 1] (or exactly 1 when ``unit_norm_features``); cameras fill
    contiguous blocks of balanced sizes, the first ``n_cameras % n_groups``
    groups one camera larger.
    """
    if seed < 0:
        raise ConfigError(f"world_seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    g, d = config.n_groups, config.dimension
    if g > 1 and config.gamma > 2.0:
        raise GenerationError(
            f"gamma {config.gamma} exceeds the unit-ball diameter; "
            f"{g * (g - 1) // 2} pairs can never satisfy it")
    thetas = None
    for _ in range(MAX_REDRAWS):
        cand = _uniform_ball(rng, g, d)
        if g == 1:
            thetas = cand
            break
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=2)
        bad = int((dists[np.triu_indices(g, k=1)] < config.gamma).sum())
        if bad == 0:
            thetas = cand
            break
    if thetas is None:
        raise GenerationError(
            f"could not satisfy dispersion gamma={config.gamma} for {g} groups after "
            f"{MAX_REDRAWS} attempts ({bad} pairs violated it in the last draw)")

    directions = rng.standard_normal((config.n_models, d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    if config.unit_norm_features:
        magnitudes = np.ones(config.n_models)
    else:
        magnitudes = rng.uniform(0.5, 1.0, config.n_models)
    feats = directions * magnitudes[:, None]

    n_edge = int(round(0.5 * config.n_models))        # half the catalog runs at the edge
    tier_assignment = np.array(["cloud"] * config.n_models)
    tier_assignment[rng.permutation(config.n_models)[:n_edge]] = "edge"
    catalog = []
    for m in range(config.n_models):
        edge = tier_assignment[m] == "edge"
        bw = rng.uniform(0.05, 0.3) if edge else rng.uniform(0.4, 1.0)
        lat = rng.uniform(0.01, 0.1) if edge else rng.uniform(0.2, 0.6)
        catalog.append(VisualModel(id=m, features=feats[m], tier=str(tier_assignment[m]),
                                   bandwidth_cost=float(bw), latency_cost=float(lat)))

    base, extra = divmod(config.n_cameras, g)
    sizes = np.full(g, base)
    sizes[:extra] += 1
    assignment = np.repeat(np.arange(g), sizes)

    return World(
        dimension=d,
        camera_groups=assignment,
        group_thetas=thetas,
        catalog=catalog,
        dispersion_gamma=config.gamma,
        payoff_mode=config.payoff_mode,
        accuracy_threshold=config.accuracy_threshold,
        noise_sigma=config.noise_sigma,
        link=config.link,
    )


def sample_camera(world: World, rng) -> int:
    """Uniform camera arrival, independent across rounds."""
    return int(rng.integers(0, world.n_cameras))


def sample_payoff(world: World, camera: int, model: int, rng) -> int:
    """One binary payoff draw for (camera, model) under the world's payoff mode."""
    mu = float(world.mean_payoffs(camera)[model])
    if world.payoff_mode == "bernoulli":
        return int(rng.random() < mu)
    accuracy = mu + world.noise_sigma * rng.standard_normal()
    return int(accuracy >= world.accuracy_threshold)


def oracle_best_set(world: World, camera: int, k: int) -> list[int]:
    """The k models with the largest expected payoffs, best first, ties to the
    lower model id. Descending order maximizes the expected aggregate payoff
    among size-k selections and minimizes expected attempts."""
    if not 1 <= k <= world.n_models:
        raise ValueError(f"k must lie in 1..{world.n_models}, got {k}")
    probs = world.success_probs(camera)
    order = np.lexsort((np.arange(world.n_models), -probs))
    return [int(m) for m in order[:k]]


# ---------------------------------------------------------------------------
# World file format (JSON)

def world_to_dict(world: World) -> dict:
    return {
        "schema_version": WORLD_SCHEMA_VERSION,
        "dimension": world.dimension,
        "gamma": world.dispersion_gamma,
        "payoff_mode": world.payoff_mode,
        "threshold": world.accuracy_threshold,
        "sigma": world.noise_sigma,
        "link": {"kind": world.link.kind, "domain_bound": world.link.domain_bound},
        "groups": [{"theta": theta.tolist()} for theta in world.group_thetas],
        "cameras": [{"group": int(g)} for g in world.camera_groups],
        "models": [
            {
                "features": m.features.tolist(),
                "tier": m.tier,
                "bandwidth_cost": m.bandwidth_cost,
                "latency_cost": m.latency_cost,
            }
            for m in world.catalog
        ],
    }


def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _entries(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list")
    return value


def _vector(value, length: int | None, where: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) for v in value):
        raise ConfigError(f"{where}: expected a list of numbers")
    arr = np.asarray(value, dtype=float)
    if length is not None and arr.shape != (length,):
        raise ConfigError(f"{where}: expected {length} entries, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{where}: entries must be finite")
    return arr


def world_from_dict(data: dict) -> World:
    if not isinstance(data, dict):
        raise ConfigError("world file: top level must be an object")
    version = data.get("schema_version", WORLD_SCHEMA_VERSION)
    if version != WORLD_SCHEMA_VERSION:
        raise ConfigError(f"world file: unsupported schema_version {version}")
    d = _require(data, "dimension", "world file")
    if not isinstance(d, int) or d < 2:
        raise ConfigError(f"world file: dimension must be an integer >= 2, got {d!r}")
    thetas = []
    for i, entry in enumerate(_entries(_require(data, "groups", "world file"), "groups")):
        theta = _vector(_require(entry, "theta", f"groups[{i}]"), d, f"groups[{i}].theta")
        if np.linalg.norm(theta) > 1.0 + 1e-9:
            raise ConfigError(f"groups[{i}].theta: norm {np.linalg.norm(theta):.6f} exceeds 1")
        thetas.append(theta)
    if not thetas:
        raise ConfigError("world file: needs at least one group")
    cameras = []
    for i, entry in enumerate(_entries(_require(data, "cameras", "world file"), "cameras")):
        grp = _require(entry, "group", f"cameras[{i}]")
        if not isinstance(grp, int) or not 0 <= grp < len(thetas):
            raise ConfigError(f"cameras[{i}].group: {grp!r} is not a valid group index")
        cameras.append(grp)
    models = []
    for i, entry in enumerate(_entries(_require(data, "models", "world file"), "models")):
        feats = _vector(_require(entry, "features", f"models[{i}]"), d, f"models[{i}].features")
        if np.linalg.norm(feats) > 1.0 + 1e-9:
            raise ConfigError(f"models[{i}].features: norm {np.linalg.norm(feats):.6f} exceeds 1")
        tier = entry.get("tier", "edge")
        if tier not in TIERS:
            raise ConfigError(f"models[{i}].tier: {tier!r} is not one of {TIERS}")
        bw = float(entry.get("bandwidth_cost", 0.0))
        lat = float(entry.get("latency_cost", 0.0))
        if bw < 0 or lat < 0:
            raise ConfigError(f"models[{i}]: costs must be nonnegative")
        models.append(VisualModel(id=i, features=feats, tier=tier,
                                  bandwidth_cost=bw, latency_cost=lat))
    try:
        return World(
            dimension=d,
            camera_groups=np.asarray(cameras, dtype=int),
            group_thetas=np.vstack(thetas),
            catalog=models,
            dispersion_gamma=float(_require(data, "gamma", "world file")),
            payoff_mode=_require(data, "payoff_mode", "world file"),
            accuracy_threshold=float(_require(data, "threshold", "world file")),
            noise_sigma=float(_require(data, "sigma", "world file")),
            link=LinkFunctionSpec(**data.get("link", {})),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"world file: {exc}") from exc


def save_world(world: World, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(world_to_dict(world), fh, indent=2)
        fh.write("\n")


def load_world(path) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return world_from_dict(data)
