"""Feed dataset serialization (JSONL).

Format: the first line is a header object describing the feed; every
subsequent line is one sighting record:

    {"feed": "mx1", "type": "mx_honeypot", "has_volume": true}
    {"d": "pillstore99.info", "t": 12345}
    ...

Registered domains and integer minute timestamps only -- the lowest
common denominator the comparison operates on (Section 3).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from repro.feeds.base import FeedDataset, FeedRecord, FeedType


class FeedFormatError(ValueError):
    """Raised when a feed file does not match the expected format."""


def write_feed_jsonl(dataset: FeedDataset, path: str) -> None:
    """Write *dataset* to *path* in JSONL form."""
    header = {
        "feed": dataset.name,
        "type": dataset.feed_type.value,
        "has_volume": dataset.has_volume,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in dataset.records:
            handle.write(
                json.dumps({"d": record.domain, "t": record.time}) + "\n"
            )


def read_feed_jsonl(path: str) -> FeedDataset:
    """Read a feed dataset written by :func:`write_feed_jsonl`."""
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise FeedFormatError(f"{path}: missing header line")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise FeedFormatError(f"{path}: bad header: {exc}") from exc
        for key in ("feed", "type"):
            if key not in header:
                raise FeedFormatError(f"{path}: header missing {key!r}")
        try:
            feed_type = FeedType(header["type"])
        except ValueError as exc:
            raise FeedFormatError(
                f"{path}: unknown feed type {header['type']!r}"
            ) from exc

        records: List[FeedRecord] = []
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                records.append(FeedRecord(str(obj["d"]), int(obj["t"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise FeedFormatError(
                    f"{path}:{line_number}: bad record: {exc}"
                ) from exc

    return FeedDataset(
        name=str(header["feed"]),
        feed_type=feed_type,
        records=records,
        has_volume=bool(header.get("has_volume", True)),
    )


def write_feeds_dir(datasets: Dict[str, FeedDataset], directory: str) -> None:
    """Write every dataset as ``<directory>/<feed>.jsonl``."""
    os.makedirs(directory, exist_ok=True)
    for name, dataset in datasets.items():
        write_feed_jsonl(dataset, os.path.join(directory, f"{name}.jsonl"))


def read_feeds_dir(directory: str) -> Dict[str, FeedDataset]:
    """Read every ``*.jsonl`` feed file in *directory*."""
    datasets: Dict[str, FeedDataset] = {}
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".jsonl"):
            continue
        dataset = read_feed_jsonl(os.path.join(directory, entry))
        datasets[dataset.name] = dataset
    return datasets


def roundtrip_equal(a: FeedDataset, b: FeedDataset) -> bool:
    """True if two datasets are record-for-record identical."""
    return (
        a.name == b.name
        and a.feed_type is b.feed_type
        and a.has_volume == b.has_volume
        and a.records == b.records
    )
