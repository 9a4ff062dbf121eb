"""Scenario/experiment configuration files and dense matrix IO.

Configs are JSON. A scenario block either names a preset (fig1..fig8) or
spells out dimensions, correlation recipes (FAS grid and/or RIS angular
profiles), distance-driven or explicit dB gains, powers and noise. Matrices
can be overridden from dense files: .npy, or .csv with a `# shape: n m`
header and complex entries.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import (CorrelationSet, Dimensions, PlanarFasGeometry,
                      RisAngularProfile, Scenario, db2lin,
                      fas_correlation_matrix, ris_correlation_matrices,
                      ris_correlation_matrix)
from . import scenarios as sc_mod


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dense matrix files
# ---------------------------------------------------------------------------

def save_matrix(path: str | Path, A: np.ndarray) -> None:
    path = Path(path)
    if path.suffix == ".npy":
        np.save(path, A)
        return
    A = np.asarray(A)
    with open(path, "w") as fh:
        fh.write(f"# shape: {A.shape[0]} {A.shape[1]}\n")
        for row in A:
            fh.write(",".join(f"{v.real:.17g}{v.imag:+.17g}j" if np.iscomplexobj(A)
                              else f"{v:.17g}" for v in row) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".npy":
        return np.load(path)
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# shape:"):
            raise ConfigError(f"{path}: missing '# shape: n m' header")
        n, m = map(int, header.split(":")[1].split())
        rows = [[complex(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    A = np.array(rows)
    if A.shape != (n, m):
        raise ConfigError(f"{path}: data shape {A.shape} != header ({n}, {m})")
    if np.all(A.imag == 0):
        A = A.real
    return A


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

# each preset's builder and the preset_args it accepts, with their defaults
PRESETS = {
    "fig1": (sc_mod.fig1_scenario, {"M": 24, "sigma2_inv_db": 80.0, "K": 12, "L": 32}),
    "fig2": (sc_mod.fig2_scenario, {"case": 1, "scale": 1, "sigma2_inv_db": 80.0}),
    "fig3": (sc_mod.fig3_scenario,
             {"sigma2_inv_db": 80.0, "K": 8, "L": 32, "W": 2.0, "N": 10}),
    "fig6": (sc_mod.fig6_scenario, {"K": 8, "sigma2_inv_db": 80.0}),
    "fig8": (sc_mod.fig8_scenario, {"sigma2_inv_db": 80.0}),
}


def _profile(entry: dict, L: int) -> RisAngularProfile:
    return RisAngularProfile(d_c=entry.get("d_c", 0.5),
                             alpha=entry.get("alpha", 0.0),
                             beta=entry.get("beta", 5.0), L=L)


def _ris_profile(entry: dict, L: int) -> np.ndarray:
    return ris_correlation_matrix(_profile(entry, L))


def scenario_from_config(cfg: dict) -> Scenario:
    """Build the Scenario described by the config's `scenario` block."""
    block = cfg.get("scenario", cfg)
    if "preset" in block and block["preset"]:
        name = block["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}; "
                              f"choose from {sorted(PRESETS)}")
        build, defaults = PRESETS[name]
        args = dict(block.get("preset_args", {}))
        unknown = sorted(set(args) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown preset_args {unknown} for {name!r}; "
                              f"it accepts {sorted(defaults)}")
        if "sigma2_inv_db" in block:
            args.setdefault("sigma2_inv_db", block["sigma2_inv_db"])
        for key, value in args.items():
            want = type(defaults[key])      # an int passes for a float
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if want is float else want):
                raise ConfigError(f"preset_args {key!r} for {name!r} must be "
                                  f"{want.__name__}, got {value!r}")
        scenario = build(**{**defaults, **args})
        # fig3, fig6 and fig8 return (scenario, M)
        return scenario[0] if isinstance(scenario, tuple) else scenario

    try:
        d = block["dims"]
        dims = Dimensions(M=d["M"], K=d["K"], L=d["L"], M_tot=d.get("M_tot"))
    except KeyError as exc:
        raise ConfigError(f"scenario config missing {exc}") from None
    K, L = dims.K, dims.L
    n_ports = dims.M_tot if dims.M_tot else dims.M

    files = block.get("matrix_files", {})

    def from_file(key):
        return load_matrix(files[key]) if key in files else None

    R_tot = from_file("R_tot")
    if R_tot is None and "fas_grid" in block:
        g = block["fas_grid"]
        geom = PlanarFasGeometry(W_x=g["W_x"], W_y=g["W_y"],
                                 N_x=g["N_x"], N_y=g["N_y"])
        R_tot = fas_correlation_matrix(geom)
    if R_tot is None and "R_profile" in block:
        R_tot = _ris_profile(block["R_profile"], n_ports)
    if R_tot is None:
        R_tot = np.eye(n_ports)

    profiles = block.get("ris_profiles", {})
    C_L = from_file("C_L")
    if C_L is None:
        C_L = _ris_profile(profiles["C_L"], L) if "C_L" in profiles else np.eye(L)

    # `mode` shapes the matrices built here; the regime then follows the data
    mode = block.get("mode", "common")
    if mode not in ("common", "uncommon", "iid"):
        raise ConfigError(f"unknown correlation mode {mode!r}")
    if mode == "uncommon":

        def per_user(file_key, profiles_key, n):
            # a file, else a profile, else the identity; the profiles of
            # every user go through one batched quadrature
            mats = [from_file(f"{file_key}_{k}") if f"{file_key}_{k}" in files
                    else (_profile(block[profiles_key][k], n)
                          if profiles_key in block else np.eye(n))
                    for k in range(K)]
            at = [k for k, A in enumerate(mats)
                  if isinstance(A, RisAngularProfile)]
            for k, A in zip(at, ris_correlation_matrices([mats[k] for k in at])):
                mats[k] = A
            return mats

        F_tot = per_user("F_tot", "F_profiles", n_ports)
        C_R = per_user("C_R", "C_R_profiles", L)
    else:
        F_tot = from_file("F_tot")
        if F_tot is None:
            F_tot = (_ris_profile(block["F_profile"], n_ports)
                     if "F_profile" in block else R_tot)
        C_R = from_file("C_R")
        if C_R is None:
            C_R = _ris_profile(profiles["C_R"], L) if "C_R" in profiles else np.eye(L)

    # gains: explicit dB arrays (null = link absent), or distance-driven
    if "gains_db" in block:
        g = block["gains_db"]

        def gains(val):
            if val is None:
                return np.zeros(K)
            arr = np.array([db2lin(x) for x in np.atleast_1d(val)], dtype=float)
            return np.full(K, arr[0]) if arr.size == 1 else arr

        u = gains(g["u"])
        t = gains(g["t"])
    elif "geometry_gains" in block:
        gg = block["geometry_gains"]
        d_ris = np.asarray(gg["d_ris_user"], dtype=float)
        if d_ris.size == 1:
            d_ris = np.full(K, float(d_ris))
        d_bs = np.array([sc_mod.bs_user_distance(dd, gg.get("d_bs_ris",
                                                            sc_mod.D_BS_RIS))
                         for dd in d_ris])
        u = np.array([sc_mod.direct_gain(dd) for dd in d_bs])
        if gg.get("cascade", "product") == "product":
            t = np.array([sc_mod.cascaded_gain(dd, gg.get("d_bs_ris",
                                                          sc_mod.D_BS_RIS))
                          for dd in d_ris])
        else:
            t = np.array([sc_mod.ris_leg_gain(dd) for dd in d_ris])
    else:
        raise ConfigError("scenario needs `gains_db` or `geometry_gains`")

    p = np.asarray(block.get("powers", np.ones(K)), dtype=float)
    if p.size == 1:
        p = np.full(K, float(p))
    if "sigma2_inv_db" not in block:
        raise ConfigError("scenario needs `sigma2_inv_db`")
    sigma2 = db2lin(-float(block["sigma2_inv_db"]))

    corr = CorrelationSet(R_tot=R_tot, F_tot=F_tot, C_L=C_L, C_R=C_R)
    return Scenario(dims=dims, correlations=corr, u=u, t=t, p=p,
                    sigma2=sigma2, name=block.get("name", "config"))


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def selection_from_config(cfg: dict, scenario: Scenario) -> np.ndarray | None:
    """Resolve the `selection` block to a binary vector.

    Without a block, the uniform baseline when ports outnumber RF chains,
    else None (all ports).
    """
    block = cfg.get("selection")
    M_tot = scenario.correlations.R_tot.shape[0]
    if block is None:
        if M_tot > scenario.dims.M:
            return sc_mod.uniform_selection(scenario.dims.M, M_tot)
        return None
    kind = block.get("type", "uniform")
    M = block.get("M", scenario.dims.M)
    idx = block["indices"] if kind == "indices" else []
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
               for i in (M, *idx)):
        raise ConfigError(f"selection M and indices must be integers: "
                          f"M = {M!r}, indices {idx}")
    if kind in ("uniform", "first") and not 1 <= M <= M_tot:
        raise ConfigError(f"selection M = {M} outside [1, {M_tot}]")
    if kind == "uniform":
        return sc_mod.uniform_selection(M, M_tot)
    if kind == "first":
        s = np.zeros(M_tot)
        s[:M] = 1.0
        return s
    if kind == "indices":
        if any(not 0 <= i < M_tot for i in idx) or len(set(idx)) < len(idx):
            raise ConfigError(f"selection indices must be distinct ports in "
                              f"[0, {M_tot}): {idx}")
        if "M" in block and len(idx) != M:
            raise ConfigError(f"selection has {len(idx)} indices, M = {M}")
        s = np.zeros(M_tot)
        s[idx] = 1.0
        return s
    raise ConfigError(f"unknown selection type {kind!r}")


def phases_from_config(cfg: dict, L: int) -> np.ndarray | None:
    block = cfg.get("phases")
    if block is None:
        return None
    kind = block.get("type", "zero")
    if kind == "zero":
        return np.zeros(L)
    if kind == "values":
        values = block.get("values")
        if not (isinstance(values, list) and len(values) == L and all(
                type(v) in (int, float) and np.isfinite(v) for v in values)):
            raise ConfigError(f"phases values must be {L} finite real "
                              f"numbers: {values!r}")
        return np.asarray(values, dtype=float)
    raise ConfigError(f"unknown phases type {kind!r}")
