"""Crawler framework: fetchers, the crawler base class, provenance.

A :class:`Crawler` is constructed with the target :class:`~repro.core.IYP`
instance and a :class:`Fetcher`.  Its ``parse()`` fetches the dataset's
URL(s) and states the nodes and links it holds; ``run()`` — defined once,
here — turns what was stated into columns and loads them.  The systematic
provenance properties of Section 2.2 are produced by
:meth:`Crawler.reference`.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Any, Callable, Mapping

from repro.core import IYP, Reference
from repro.graphdb import Node

SNAPSHOT_DATE = "2024-05-01T00:00:00Z"


class FetchError(Exception):
    """Raised when a dataset URL cannot be served."""


class Fetcher(abc.ABC):
    """Transport abstraction: maps a URL to the dataset's raw bytes."""

    @abc.abstractmethod
    def fetch(self, url: str) -> str:
        """Return the content behind ``url``; raises FetchError."""


class SimulatedFetcher(Fetcher):
    """Serves dataset URLs rendered from the synthetic world.

    The registry wires each dataset URL to a generator function
    ``world -> str`` producing the file in the original source's format.
    Rendered files are cached, and fetches are counted so tests can
    assert that crawlers hit the network layer exactly once per URL.
    """

    def __init__(self, world) -> None:
        self.world = world
        self._generators: dict[str, Callable] = {}
        self._cache: dict[str, str] = {}
        self.fetch_counts: dict[str, int] = {}

    def register(self, url: str, generator: Callable) -> None:
        """Associate a URL with its content generator."""
        self._generators[url] = generator

    def fetch(self, url: str) -> str:
        self.fetch_counts[url] = self.fetch_counts.get(url, 0) + 1
        if url not in self._cache:
            generator = self._generators.get(url)
            if generator is None:
                raise FetchError(f"no simulated source registered for {url!r}")
            self._cache[url] = generator(self.world)
        return self._cache[url]


class RecordingFetcher(Fetcher):
    """Wraps a fetcher and checksums every payload that flows through.

    The incremental build pipeline (``build_iyp(..., incremental=True)``)
    needs to know, *before* running a crawler, whether its inputs changed
    since the previous build.  This wrapper is always in the path: it
    records a SHA-256 per URL, and :meth:`begin`/:meth:`end` bracket one
    crawler's run so the URLs it touched land in that crawler's
    :class:`~repro.pipeline.build.CrawlerRun` record.  The next build
    re-fetches (cheap — rendering, not crawling) and compares
    :meth:`payload_checksum` per crawler to decide what to skip.
    """

    def __init__(self, inner: Fetcher):
        self.inner = inner
        self.digests: dict[str, str] = {}
        self._active: list[str] | None = None

    def fetch(self, url: str) -> str:
        content = self.inner.fetch(url)
        self.digests[url] = hashlib.sha256(content.encode("utf-8")).hexdigest()
        if self._active is not None and url not in self._active:
            self._active.append(url)
        return content

    def begin(self) -> None:
        """Start attributing fetched URLs to one crawler's run."""
        self._active = []

    def end(self) -> list[str]:
        """Stop attributing; returns the URLs fetched since :meth:`begin`."""
        urls = self._active or []
        self._active = None
        return urls

    def digest(self, url: str) -> str:
        """SHA-256 of ``url``'s payload, fetching it if not yet seen."""
        if url not in self.digests:
            self.fetch(url)
        return self.digests[url]

    def payload_checksum(self, urls: list[str]) -> str:
        """One checksum over a crawler's full input set.

        Stable under URL ordering; any byte change in any payload (or a
        URL appearing/disappearing) changes the checksum.
        """
        summary = hashlib.sha256()
        for url in sorted(set(urls)):
            summary.update(url.encode("utf-8"))
            summary.update(b"\n")
            summary.update(self.digest(url).encode("ascii"))
            summary.update(b"\n")
        return summary.hexdigest()


class StaticFetcher(Fetcher):
    """Serves URLs from a fixed mapping (used by parser unit tests)."""

    def __init__(self, contents: dict[str, str]):
        self._contents = dict(contents)

    def fetch(self, url: str) -> str:
        try:
            return self._contents[url]
        except KeyError as exc:
            raise FetchError(f"no content for {url!r}") from exc


class Crawler(abc.ABC):
    """Base class of all dataset crawlers.

    Subclasses define the class attributes ``organization``, ``name``
    (the ``reference_name`` stamped on links), ``url_data`` and
    optionally ``url_info``, and implement :meth:`parse`: fetch the
    dataset and state its datapoints — ``self.node(label, key=value)``
    per node a record names, ``self.link(start, TYPE, end, props)`` per
    link.  Nothing reaches the graph while ``parse`` runs; :meth:`run`
    then loads the whole dataset, one facade call per label and one for
    the links.

    Two failure rules follow.  An exception in ``parse`` — a malformed
    record, or an identifier with no canonical form, which ``node``
    raises on the spot — drops what was stated and leaves the store
    untouched: no half-imported dataset.  An exception while loading
    keeps the store's batch contract: the rows before it stay applied,
    logged and counted (:meth:`GraphStore.batch_mutation`).
    """

    organization: str = ""
    name: str = ""
    url_data: str = ""
    url_info: str = ""

    def __init__(self, iyp: IYP, fetcher: Fetcher):
        self.iyp = iyp
        self.fetcher = fetcher
        self._clear()

    def _clear(self) -> None:
        self._handles = 0  # requests stated so far; the next handle
        # label -> (identifying property, canonical values, their handles),
        # labels in first-touch order and rows in request order.
        self._columns: dict[str, tuple[str, list[Any], list[int]]] = {}
        # Requests that carry extra properties: (handle, label, extras, key).
        self._described: list[tuple] = []
        self._labels: list[tuple[int, str]] = []
        self._links: list[tuple] = []  # (start, type, end, properties)

    def fetch(self, url: str | None = None) -> str:
        """Fetch the dataset (or a specific URL)."""
        return self.fetcher.fetch(url or self.url_data)

    def reference(self) -> Reference:
        """Provenance stamped on every link this crawler creates."""
        return Reference(
            organization=self.organization,
            dataset_name=self.name,
            url_info=self.url_info,
            url_data=self.url_data,
            time_modification=SNAPSHOT_DATE,
            time_fetch=SNAPSHOT_DATE,
        )

    def node(
        self, label: str, /, properties: Mapping[str, Any] | None = None, **key: Any
    ) -> int:
        """State one requested datapoint: the ``label`` node identified
        by ``key`` (its identifying property).  Returns a handle — a
        plain int standing for the node in :meth:`link` / :meth:`label`
        until :meth:`run` resolves it.

        Every call is one request, as a :meth:`IYP.get_node` is: naming
        an identifier twice merges it the second time.  A request with
        ``properties`` (non-identifying extras) stays a single
        ``IYP.get_node`` call, made when the dataset is loaded.
        """
        (key_prop, value), = key.items()
        value = self.iyp.canonicalize(label, key_prop, value)
        handle = self._handles
        self._handles += 1
        if properties:
            self._described.append((handle, label, properties, {key_prop: value}))
            return handle
        column = self._columns.get(label)
        if column is None:
            column = self._columns[label] = (key_prop, [], [])
        column[1].append(value)
        column[2].append(handle)
        return handle

    def link(
        self,
        start: int | Node,
        rel_type: str,
        end: int | Node,
        properties: Mapping[str, Any] | None = None,
    ) -> None:
        """State one link; each end is a handle, or a node read from
        the graph."""
        self._links.append((start, rel_type, end, properties))

    def label(self, handle: int, label: str) -> None:
        """State that the node behind ``handle`` also carries ``label``."""
        self._labels.append((handle, label))

    @abc.abstractmethod
    def parse(self) -> None:
        """Fetch the dataset and state its nodes and links."""

    def run(self) -> None:
        """Fetch, parse, and load the dataset into the knowledge graph."""
        try:
            self.parse()
            self._load()
        finally:
            self._clear()

    def _load(self) -> None:
        iyp = self.iyp
        nodes: list[Any] = [None] * self._handles
        for handle, label, properties, key in self._described:
            nodes[handle] = iyp.get_node(label, properties, **key)
        for label, (key_prop, values, handles) in self._columns.items():
            by_key = iyp.batch_get_nodes(label, key_prop, values)
            for handle, value in zip(handles, values):
                nodes[handle] = by_key[value]
        if self._labels:
            with iyp.store.batch_mutation():
                for node_id, label in dict.fromkeys(
                    (nodes[handle].id, label) for handle, label in self._labels
                ):
                    iyp.store.add_label(node_id, label)
        # Rows are resolved in place: the largest datasets state thousands,
        # and a second list would double what is held (and what the
        # garbage collector tracks) until the call returns.
        links = self._links
        for row, (start, rel_type, end, properties) in enumerate(links):
            links[row] = (
                nodes[start] if type(start) is int else start,
                rel_type,
                nodes[end] if type(end) is int else end,
                properties,
            )
        if links:
            iyp.add_links(links, self.reference())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
