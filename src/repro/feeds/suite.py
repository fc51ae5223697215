"""The paper's ten-feed suite, pre-configured.

Parameter choices are calibrated so the collected datasets reproduce the
qualitative relationships of Tables 1-3 and Figures 1-12 (see
EXPERIMENTS.md for the target shapes).  All values are per-feed
apparatus properties -- portfolio sizes, seeding quality, monitoring
fractions, listing thresholds -- not per-result fudge factors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.ecosystem.world import World
from repro.feeds.base import (
    ColumnarFeedDataset,
    FeedCollector,
    FeedDataset,
    PackedColumns,
)
from repro.feeds.blacklist import BlacklistConfig, BlacklistFeed
from repro.feeds.botnet import BotnetFeedConfig, BotnetFeed
from repro.feeds.honey_account import HoneyAccountConfig, HoneyAccountFeed
from repro.feeds.human import HumanFeedConfig, HumanIdentifiedFeed
from repro.feeds.hybrid import HybridFeedConfig, HybridFeed
from repro.feeds.mx_honeypot import MxHoneypotConfig, MxHoneypotFeed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel import WorkerPool
    from repro.store.sightings import RunWriter

#: Feed mnemonics in the paper's Table 1 order.
PAPER_FEED_ORDER = (
    "Hu", "uribl", "dbl", "mx1", "mx2", "mx3", "Ac1", "Ac2", "Bot", "Hyb",
)


def standard_feed_suite(seed: int = 2012) -> List[FeedCollector]:
    """Build collectors for the paper's ten feeds."""
    return [
        HumanIdentifiedFeed(HumanFeedConfig(), seed),
        BlacklistFeed(
            BlacklistConfig(
                name="uribl",
                broad_volume_scale=600.0,
                user_volume_scale=2_600.0,
                user_weight=0.4,
                latency_mean_minutes=26 * 60.0,
                benign_fp_domains=24,
            ),
            seed,
        ),
        BlacklistFeed(
            BlacklistConfig(
                name="dbl",
                broad_volume_scale=6_000.0,
                user_volume_scale=70.0,
                user_weight=1.0,
                latency_mean_minutes=12 * 60.0,
                benign_fp_domains=8,
            ),
            seed,
        ),
        MxHoneypotFeed(
            MxHoneypotConfig(
                name="mx1",
                inclusion_probability=0.80,
                harvested_inclusion=0.40,
                catch_rate=0.016,
                sees_dga=False,
                benign_fp_domains=90,
                benign_fp_volume=700.0,
            ),
            seed,
        ),
        MxHoneypotFeed(
            MxHoneypotConfig(
                name="mx2",
                inclusion_probability=0.90,
                harvested_inclusion=0.55,
                catch_rate=0.045,
                sees_dga=True,
                dga_catch_rate=0.05,
                benign_fp_domains=40,
                benign_fp_volume=500.0,
            ),
            seed,
        ),
        MxHoneypotFeed(
            MxHoneypotConfig(
                name="mx3",
                inclusion_probability=0.60,
                harvested_inclusion=0.30,
                catch_rate=0.014,
                sees_dga=False,
                benign_fp_domains=60,
                benign_fp_volume=350.0,
            ),
            seed,
        ),
        HoneyAccountFeed(
            HoneyAccountConfig(
                name="Ac1",
                harvested_inclusion=0.75,
                brute_inclusion=0.45,
                catch_rate=0.014,
                benign_fp_domains=70,
                benign_fp_volume=450.0,
            ),
            seed,
        ),
        HoneyAccountFeed(
            HoneyAccountConfig(
                name="Ac2",
                harvested_inclusion=0.55,
                brute_inclusion=0.35,
                catch_rate=0.02,
                volume_bias_scale=10_000.0,
                catch_jitter_sigma=1.4,
                benign_fp_domains=18,
                benign_fp_volume=300.0,
                chaff_factor=0.05,
            ),
            seed,
        ),
        BotnetFeed(
            BotnetFeedConfig(
                name="Bot",
                monitor_fraction=0.022,
                dga_monitor_factor=3.0,
                chaff_factor=0.15,
            ),
            seed,
        ),
        HybridFeed(HybridFeedConfig(), seed),
    ]


#: The (world, collectors) state persistent-pool collect tasks run
#: against.  Published immediately before the pool forks so workers
#: inherit it copy-on-write; tasks index into it and never mutate it.
_POOL_STATE: Optional[Tuple[World, List[FeedCollector]]] = None


def set_pool_state(
    world: World, collectors: List[FeedCollector]
) -> None:
    """Publish the collect state a persistent pool will inherit.

    Must run *before* the :class:`~repro.parallel.pool.WorkerPool` is
    constructed: pool workers receive only small task descriptors over
    a pipe, so everything heavy has to already be in the forked image.
    """
    global _POOL_STATE
    _POOL_STATE = (world, collectors)  # reprolint: disable=REP009 -- pre-fork publication point


def clear_pool_state() -> None:
    """Drop the published collect state (after the pool is closed)."""
    global _POOL_STATE
    _POOL_STATE = None  # reprolint: disable=REP009 -- clears the pre-fork publication


def pool_world() -> World:
    """The world published for the active pool (workers and parent)."""
    if _POOL_STATE is None:
        raise RuntimeError("no pool state published (set_pool_state)")
    return _POOL_STATE[0]


def _pool_collect_task(index: int) -> PackedColumns:
    """Pool task: run the *index*-th published collector, return blobs."""
    if _POOL_STATE is None:
        raise RuntimeError("no pool state published (set_pool_state)")
    world, collectors = _POOL_STATE
    return collectors[index].collect(world).packed()


def land_dataset(writer: "RunWriter", dataset: FeedDataset) -> None:
    """Land one collected dataset into a sighting-store run."""
    columns = dataset.to_columns()
    writer.land_sightings(
        dataset.name, zip(columns.domains, columns.times)
    )


def collect_all(
    world: World,
    collectors: Optional[Iterable[FeedCollector]] = None,
    writer: Optional["RunWriter"] = None,
    pool: Optional["WorkerPool"] = None,
) -> Dict[str, FeedDataset]:
    """Run every collector against *world*; keyed by feed mnemonic.

    With an open persistent *pool* (forked after :func:`set_pool_state`
    published this exact world and collector list) the collectors run
    in the already-forked workers, which receive only collector indices
    and share the fork bill with later stages.  Each collector draws
    only from its own seed-derived RNG streams and the results are
    reassembled in collector order, so the datasets are byte-identical
    to the serial loop's; pooled results come back as column-backed
    datasets (cheap to transport), which serve the same statistics in
    the same order.

    With a *writer* attached, each dataset lands in the sighting store
    as it is collected (in collector order on the pool path, where
    workers return columns and the parent lands them).  Landing is a
    store-side effect only -- the returned datasets are identical with
    or without it.
    """
    ordered = (
        list(collectors)
        if collectors is not None
        else standard_feed_suite()
    )
    seen: set = set()
    for name in (collector.name for collector in ordered):
        if name in seen:
            raise ValueError(f"duplicate feed name {name!r}")
        seen.add(name)

    if pool is not None and not pool.closed and len(ordered) > 1:
        packed = pool.run_batch(
            _pool_collect_task,
            list(range(len(ordered))),
            labels=[f"feed.collect:{c.name}" for c in ordered],
        )
        results = {
            p.name: ColumnarFeedDataset.from_packed(p) for p in packed
        }
        for dataset in results.values():
            obs.add("feeds.records", dataset.total_samples)
            if writer is not None:
                with obs.span(f"store.land:{dataset.name}"):
                    land_dataset(writer, dataset)
        return results

    datasets: Dict[str, FeedDataset] = {}
    for collector in ordered:
        with obs.span(f"feed.collect:{collector.name}") as span:
            dataset = collector.collect(world)
            obs.add("feeds.records", dataset.total_samples)
            if span is not None:
                span.attributes["records"] = dataset.total_samples
        if writer is not None:
            with obs.span(f"store.land:{collector.name}"):
                land_dataset(writer, dataset)
        datasets[collector.name] = dataset
    return datasets
