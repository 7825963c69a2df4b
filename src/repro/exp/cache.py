"""Per-process memoization for the design-space evaluation pipeline.

Three construction steps dominate a sweep's overhead and are all pure
functions of hashable inputs, so each worker process memoizes them:

* code spaces — ``repro.codes.registry.make_code`` (lru-cached at the
  registry so every caller in the library shares entries);
* half-cave decoders — ``repro.crossbar.yield_model.decoder_for``
  (lru-cached at the model; the decoder's derived matrices are cached
  properties, so yield/area/complexity metrics on one point share one
  construction), plus the fabrication layers underneath
  (``repro.decoder.decoder.FABRICATION_CACHES``: pattern matrix,
  doping plan, dose counts, contact groups), which are independent of
  the electrical spec knobs and therefore shared across a whole
  sigma_T / window-margin perturbation grid;
* perturbed specs — :func:`cached_spec` here, keyed on the base spec
  plus the sorted override tuple of a :class:`DesignPoint`.

The helpers below aggregate those caches for every consumer that needs
hit counts or a reset: tests and benchmarks, the ``repro sweep
--format json`` cache section, and the :mod:`repro.obs` telemetry
registry, where :func:`cache_stats` is registered as a counter provider
so sweep profiles report per-cache hit/miss deltas (summed coherently
across worker processes and shards).
"""

from __future__ import annotations

from functools import lru_cache

from repro import obs
from repro.codes.registry import make_code
from repro.crossbar.spec import CrossbarSpec, spec_with
from repro.crossbar.yield_model import decoder_for
from repro.decoder.decoder import FABRICATION_CACHES


@lru_cache(maxsize=1024)
def cached_spec(
    base: CrossbarSpec,
    overrides: tuple[tuple[str, float], ...],
) -> CrossbarSpec:
    """The base spec with a design point's overrides applied, memoized.

    :func:`repro.crossbar.spec.spec_with` applies (and validates) the
    overrides.  A grid typically crosses a handful of spec
    perturbations with many code points, so every perturbed spec is
    requested once per code — memoizing keeps one canonical instance
    per perturbation, which in turn makes the decoder cache key
    identical across those requests.  Points built directly (shard
    files, api payloads) reach this lru boundary without going through
    ``DesignPoint.make``, so unknown names fail here too.
    """
    return spec_with(base, **dict(overrides)) if overrides else base


def cache_stats(since: dict | None = None) -> dict[str, dict[str, int]]:
    """Hit/miss counters of every pipeline cache, keyed by cache name.

    With ``since`` (an earlier ``cache_stats()``), every figure is the
    change after it: what one run between the two calls did.
    """
    out: dict[str, dict[str, int]] = {}
    for name, info in (
        ("make_code", make_code.cache_info()),
        ("decoder_for", decoder_for.cache_info()),
        ("cached_spec", cached_spec.cache_info()),
        *(
            (fn.__name__.strip("_"), fn.cache_info())
            for fn in FABRICATION_CACHES
        ),
    ):
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
        }
        if since is not None:
            out[name] = {k: v - since[name][k] for k, v in out[name].items()}
    return out


def clear_caches() -> None:
    """Reset every pipeline cache (benchmarks call this between runs)."""
    make_code.cache_clear()
    decoder_for.cache_clear()
    cached_spec.cache_clear()
    for fn in FABRICATION_CACHES:
        fn.cache_clear()


def _flat_cache_counters() -> dict[str, int]:
    """Monotonic hit/miss counters for the telemetry registry.

    Flattened to ``<cache>.hits`` / ``<cache>.misses`` (``currsize`` is
    a level, not a counter, so it stays out of the delta algebra).
    """
    flat: dict[str, int] = {}
    for name, stats in cache_stats().items():
        flat[f"{name}.hits"] = stats["hits"]
        flat[f"{name}.misses"] = stats["misses"]
    return flat


# Snapshots report per-scope *deltas* of these monotonic counters, so
# worker/shard contributions sum without double counting (note
# ``clear_caches`` mid-scope would skew a delta; benchmarks that clear
# do so outside telemetry scopes).
obs.register_provider("exp.cache", _flat_cache_counters)
