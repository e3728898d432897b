"""Composable topology graphs: meshes, rings, and chiplet hierarchies.

Every network organization consults one :class:`Topology` object for its
structure.  The contract (see docs/simulator_internals.md, "The topology
graph contract"):

* nodes are integers ``0 .. num_nodes-1``;
* the graph is data: :attr:`Topology.links` holds, per node, one
  :class:`Link` per non-local port in the router's processing order —
  the neighbour, the **entry port** on that neighbour, the **link
  latency** (cycles from switch grant to downstream allocation
  eligibility, 2 for on-die hops) and the escape-layer flag.  Ports
  ``0..4`` are the classic :class:`Direction` values, ports ``>= 5``
  plain ints used by hierarchical topologies (interposer / IO-die
  links).  The table is built once, from the subclass's link generator,
  and :meth:`Topology.ports`, :meth:`Topology.neighbor`,
  :meth:`Topology.entry_port`, :meth:`Topology.link_latency` and
  :meth:`Topology.advances_layer` all read it;
* every link has a reverse: ``neighbor(neighbor(n, p), entry_port(n,
  p)) == n``;
* :meth:`Topology.next_port` is the pure deterministic routing law;
  :meth:`Topology.route_port` reads it through dense per-node tables
  (:meth:`Topology.route_row`) and :meth:`Topology.route` through a
  bounded memo.  Tables live **on the topology instance**, so two live
  topologies can never serve each other's cached routes;
* a topology is immutable once built: the rows and the memo are filled
  lazily, but only with what the routing law already determines.  So
  :func:`build_topology` hands every network of one ``(spec, width,
  height)`` in a process the same object, and its link table, route
  rows and route memo are built once for all of them;
* deadlock freedom is part of the graph: each message class owns
  :attr:`Topology.vc_layers` consecutive VCs, a packet starts in layer 0
  and moves to layer 1 on the first link whose :attr:`Link.advances`
  flag is set.  The advancing links are chosen so that every layer's
  channel graph is acyclic and the only cross-layer dependency is
  0 -> 1 (``tests/test_properties.py`` checks the channel-dependency
  graph of every topology here).

Concrete graphs:

* :class:`MeshTopology` — the flat ``width x height`` mesh (node
  ``id = y * width + x``), XY-routed;
* :class:`RingTopology` — a bidirectional ring (shortest direction,
  clockwise on ties), the paper's Xeon-style baseline;
* :class:`ChipletTopology` — per-chiplet sub-meshes joined through one
  gateway router each, either over an **interposer mesh** of the
  gateways or through a **central IO die** (Zen3-style star), with a
  distinct inter-chiplet link latency.  Routing is hierarchical source
  routing: intra-chiplet XY to the gateway, interposer XY (or the star
  hop), then XY to the destination; the first inter-chiplet link
  advances the escape layer (see :data:`CHIPLET_VC_LAYERS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union


class Direction(IntEnum):
    """Classic router port indices.  ``LOCAL`` is injection/ejection."""

    LOCAL = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4

    @property
    def opposite(self) -> "Direction":
        """The port on the neighboring router that faces this one."""
        return _OPPOSITE[self]


#: Opposite-direction table indexed by port number (LOCAL maps to itself).
_OPPOSITE = (
    Direction.LOCAL,
    Direction.SOUTH,
    Direction.WEST,
    Direction.NORTH,
    Direction.EAST,
)

#: The four non-local directions in a fixed arbitration order.
CARDINALS = (Direction.NORTH, Direction.EAST, Direction.SOUTH, Direction.WEST)

#: Per-direction coordinate deltas (dx, dy).
_DELTAS = {
    Direction.NORTH: (0, -1),
    Direction.SOUTH: (0, 1),
    Direction.EAST: (1, 0),
    Direction.WEST: (-1, 0),
}

#: A router port: a :class:`Direction` for the classic five, a plain int
#: for extended (inter-chiplet) ports.  ``Direction`` is an IntEnum, so
#: mixed dict keys hash and compare consistently.
Port = Union[Direction, int]

#: First extended port id; any port >= this crosses a chiplet boundary.
FIRST_INTERPOSER_PORT = 5

#: Gateway ports onto the interposer mesh, one per interposer cardinal:
#: ``_INT_SHIFT + direction`` for the cardinal it points along.
INT_NORTH, INT_EAST, INT_SOUTH, INT_WEST = 5, 6, 7, 8
_INT_SHIFT = INT_NORTH - Direction.NORTH

#: Star variant: the gateway's uplink to the IO die, and the IO die's
#: per-chiplet downlinks (``IO_DOWN_BASE + chiplet_index``).
IO_UP = 5
IO_DOWN_BASE = 6

#: Bound on the full-route memo (``Topology.route``); past it the memo
#: is dropped wholesale and rebuilt on demand from the dense rows.
_ROUTE_CACHE_CAP = 4096

#: VC layers per message class on a chiplet topology: a packet starts in
#: layer 0 and moves to layer 1 when it first crosses an inter-chiplet
#: link.  Each layer's channel graph is acyclic (XY within a phase, and
#: the phase order source-chiplet -> interposer -> destination-chiplet
#: never revisits a phase), so the layered VC dependency graph is
#: acyclic — the same escape-channel argument as the ring's dateline.
CHIPLET_VC_LAYERS = 2

_PORT_NAMES = {INT_NORTH: "INT_NORTH", INT_EAST: "INT_EAST",
               INT_SOUTH: "INT_SOUTH", INT_WEST: "INT_WEST"}


def as_port(value: int) -> Port:
    """Decode a serialized port id (Direction for 0..4, int beyond)."""
    return Direction(value) if 0 <= value <= 4 else int(value)


def port_name(port: Port) -> str:
    """Human-readable port label for traces and invariant reports."""
    if isinstance(port, Direction):
        return port.name
    return _PORT_NAMES.get(port, f"P{int(port)}")


class Link(NamedTuple):
    """One directed link out of a node: an entry of the link table."""

    #: Output port at the node the link leaves.
    port: Port
    #: The node it reaches.
    neighbor: int
    #: Input port at ``neighbor`` that faces back along the link.
    entry: Port
    #: Cycles from switch grant to downstream allocation eligibility.
    latency: int = 2
    #: Crossing it moves a packet to escape layer 1.
    advances: bool = False


def _xy_port(x: int, y: int, tx: int, ty: int) -> Direction:
    """Dimension-ordered (XY) step from ``(x, y)`` toward ``(tx, ty)``:
    X fully first, then Y; ``LOCAL`` on arrival."""
    if x < tx:
        return Direction.EAST
    if x > tx:
        return Direction.WEST
    if y < ty:
        return Direction.SOUTH
    if y > ty:
        return Direction.NORTH
    return Direction.LOCAL


def _grid_links(x: int, y: int, width: int, height: int,
                base: int) -> Iterator[Link]:
    """On-die links of tile ``(x, y)`` in a ``width x height`` grid whose
    row-major tile ids start at ``base``, in :data:`CARDINALS` order."""
    for direction in CARDINALS:
        dx, dy = _DELTAS[direction]
        nx, ny = x + dx, y + dy
        if 0 <= nx < width and 0 <= ny < height:
            yield Link(direction, base + ny * width + nx, _OPPOSITE[direction])


class Topology:
    """Base class: the link table, route memos and generic queries.

    Subclasses write :meth:`_links` (the graph, in their own terms) and
    :meth:`next_port` (the routing law); the constructor turns the
    former into :attr:`links`, which answers every graph query.
    """

    #: Spec kind string ("mesh", "ring", "chiplet").
    kind = "abstract"

    #: VC layers per message class (a class's VCs are ``class *
    #: vc_layers + layer``).  1 where the routing law alone is
    #: deadlock-free (XY on a mesh); graphs with a cycle to break
    #: declare 2 and flag the breaking links' :attr:`Link.advances`.
    vc_layers = 1

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("topology must have at least one node")
        self.num_nodes = num_nodes
        #: The link table: ``links[node]`` holds every link out of
        #: ``node`` in port order, which is the router's processing
        #: order.  Built once; nothing else describes the graph.
        self.links: Tuple[Tuple[Link, ...], ...] = tuple(
            tuple(self._links(node)) for node in range(num_nodes)
        )
        self._link_maps: List[Dict[Port, Link]] = [
            {link.port: link for link in row} for row in self.links
        ]
        self._ports: List[Tuple[Port, ...]] = [
            tuple(link.port for link in row) for row in self.links
        ]
        #: Dense next-port tables, one row per source node, built lazily
        #: from :meth:`next_port` (the pure routing law, which stays the
        #: reference oracle — ``tests/test_noc_units.py`` asserts every
        #: row entry against it).  Routers hold their row and route with
        #: one index; a row is a tuple, so no holder can change it.
        #: Instance-owned by construction, so two live topologies can
        #: never serve each other's routes.
        self._dense_rows: List[Optional[Tuple[Port, ...]]] = (
            [None] * num_nodes
        )
        #: Full-route memo (``route()``), bounded: route tuples are only
        #: resolved outside the hot path (control packets, zero-load
        #: laws), so on overflow the whole memo is dropped and rebuilt
        #: from the dense rows instead of growing O(num_nodes^2).
        self._route_cache: dict = {}
        #: One shared ``(node, port)`` tuple per hop value: the memoized
        #: routes repeat at most ``num_nodes * ports`` distinct hops.
        self._hops: Dict[Tuple[int, Port], Tuple[int, Port]] = {}

    # -- what a subclass writes ---------------------------------------------

    def _links(self, node: int) -> Iterator[Link]:
        """The links out of ``node``, in port processing order.  Called
        once per node by the constructor, after the subclass has set the
        attributes it needs."""
        raise NotImplementedError

    def next_port(self, node: int, dst: int) -> Port:
        """Pure routing law: the output port a packet at ``node`` takes
        toward ``dst`` (``Direction.LOCAL`` on arrival)."""
        raise NotImplementedError

    # -- the graph, read from the table ---------------------------------------

    def ports(self, node: int) -> Tuple[Port, ...]:
        """Ordered non-local ports of ``node``; every listed port has a
        neighbor.  The order is the router's port processing order."""
        return self._ports[node]

    def neighbor(self, node: int, port: Port) -> Optional[int]:
        """Adjacent node reached through ``port`` (None if absent)."""
        self._check(node)
        link = self._link_maps[node].get(port)
        return None if link is None else link.neighbor

    def entry_port(self, node: int, port: Port) -> Port:
        """The port on ``neighbor(node, port)`` that faces back here."""
        return self._link_maps[node][port].entry

    def link_latency(self, node: int, port: Port) -> int:
        """Cycles from switch grant to downstream eligibility (2 for
        on-die hops; hierarchies stretch inter-chiplet edges)."""
        return self._link_maps[node][port].latency

    def advances_layer(self, node: int, port: Port) -> bool:
        """Does the link out of ``node`` through ``port`` move a packet
        to escape layer 1?  Never through a port with no link (LOCAL)."""
        link = self._link_maps[node].get(port)
        return link is not None and link.advances

    def neighbors(self, node: int) -> Iterator[Tuple[Port, int]]:
        """All (port, neighbor) pairs of ``node``, in port order."""
        for link in self.links[node]:
            yield link.port, link.neighbor

    def bidirectional_links(self) -> List[Tuple[int, int]]:
        """Each physical adjacent pair once; for area/power accounting
        and link-count normalization."""
        return [(node, link.neighbor)
                for node, row in enumerate(self.links)
                for link in row if link.neighbor > node]

    # -- generic queries ----------------------------------------------------

    @property
    def num_endpoints(self) -> int:
        """Nodes that carry traffic endpoints (NIs with workloads).
        Equals ``num_nodes`` except on topologies with pure transit
        routers (the chiplet star's IO die)."""
        return self.num_nodes

    def route_row(self, node: int) -> Tuple[Port, ...]:
        """Dense next-port row for ``node``: ``row[dst]`` is
        :meth:`next_port`\\ ``(node, dst)`` for every destination
        (``Direction.LOCAL`` at ``dst == node``).  Built once per node
        and shared — routers alias their row, so the hottest routing
        query is a single tuple index."""
        self._check(node)
        row = self._dense_rows[node]
        if row is None:
            next_port = self.next_port
            row = tuple(next_port(node, dst)
                        for dst in range(self.num_nodes))
            self._dense_rows[node] = row
        return row

    def route_port(self, node: int, dst: int) -> Port:
        """Dense-table :meth:`next_port` (the hottest routing query)."""
        row = self._dense_rows[node]
        if row is None:
            row = self.route_row(node)
        return row[dst]

    def route(self, src: int, dst: int) -> Tuple[Tuple[int, Port], ...]:
        """The full source route as ``((node, out_port), ...)``, ending
        with ``(dst, Direction.LOCAL)`` (the ejection hop).  Memoized
        per (src, dst) pair as shared immutable tuples of interned hops;
        the memo is bounded (dropped wholesale past ``_ROUTE_CACHE_CAP``
        entries)."""
        key = src * self.num_nodes + dst
        cache = self._route_cache
        hit = cache.get(key)
        if hit is not None:
            return hit
        if len(cache) >= _ROUTE_CACHE_CAP:
            cache.clear()
        hops = self._hops
        path = []
        node = src
        for _ in range(self.num_nodes + 1):
            port = self.route_port(node, dst)
            hop = (node, port)
            path.append(hops.setdefault(hop, hop))
            if port is Direction.LOCAL or port == 0:
                result = tuple(path)
                cache[key] = result
                return result
            nxt = self.neighbor(node, port)
            if nxt is None:  # pragma: no cover - routing law is total
                raise RuntimeError(
                    f"route left the topology at node {node} "
                    f"port {port_name(port)}"
                )
            node = nxt
        raise RuntimeError(  # pragma: no cover - routing law terminates
            f"route {src}->{dst} failed to terminate"
        )

    def hop_distance(self, src: int, dst: int) -> int:
        """Router-to-router hops along the routing law's path."""
        return len(self.route(src, dst)) - 1

    def row_domains(self, count: int) -> List[Tuple[int, int]]:
        """Contiguous shard domains (mesh-only; see the override)."""
        if count == 1:
            return [(0, self.num_nodes - 1)]
        raise ValueError(
            f"{self.kind} topology has no row-stripe domains"
        )

    def _check(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(
                f"node {node} outside topology of {self.num_nodes}"
            )


class MeshTopology(Topology):
    """Geometry of a ``width``-by-``height`` XY-routed mesh."""

    kind = "mesh"

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        super().__init__(width * height)

    def _links(self, node: int) -> Iterator[Link]:
        return _grid_links(node % self.width, node // self.width,
                           self.width, self.height, 0)

    def coords(self, node: int) -> Tuple[int, int]:
        """(x, y) coordinates of ``node``."""
        self._check(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinates ({x}, {y}) outside mesh")
        return y * self.width + x

    def next_port(self, node: int, dst: int) -> Direction:
        """Dimension-ordered (XY) routing: X fully first, then Y."""
        return _xy_port(*self.coords(node), *self.coords(dst))

    def hop_distance(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def row_domains(self, count: int) -> List[Tuple[int, int]]:
        """Partition the mesh into ``count`` contiguous row stripes.

        Returns per-domain ``(first_node, last_node)`` inclusive node-id
        ranges (row-major numbering keeps each stripe a contiguous id
        range).  Rows split as evenly as possible: the first
        ``height % count`` stripes take one extra row.  Used by the
        sharded simulation engine, whose boundary protocol exchanges
        traffic only across the horizontal cuts between stripes.
        """
        if not 1 <= count <= self.height:
            raise ValueError(
                f"cannot cut {self.height} rows into {count} row domains"
            )
        base, extra = divmod(self.height, count)
        domains: List[Tuple[int, int]] = []
        row = 0
        for index in range(count):
            rows = base + (1 if index < extra else 0)
            first = row * self.width
            last = (row + rows) * self.width - 1
            domains.append((first, last))
            row += rows
        return domains

    def __repr__(self) -> str:
        return f"MeshTopology({self.width}x{self.height})"


class RingTopology(Topology):
    """A bidirectional ring of ``num_stops`` nodes (paper Section II-B).

    The paper motivates tiled meshes by the ring interconnect of
    contemporary server parts (Intel Xeon E5), whose delay grows
    linearly with the number of stops
    (``benchmarks/test_background_ring_scaling.py`` reproduces that).
    Each stop has a clockwise (EAST) and a counter-clockwise (WEST)
    port besides the local one, and runs the stock mesh router: 2
    cycles per hop at zero load.

    Shortest-direction routing, clockwise on ties.  Deadlock freedom
    over the wrap-around cycle is the classic *dateline*: two VC layers
    per class, and the two wrap links (stop N-1 -> 0 clockwise, stop
    0 -> N-1 counter-clockwise) advance a packet to layer 1, so neither
    layer's channels close the ring.
    """

    kind = "ring"
    vc_layers = 2

    def __init__(self, num_stops: int):
        # Mesh-shaped views (1 row) for traffic patterns and stats.
        self.width = num_stops
        self.height = 1
        super().__init__(num_stops)

    def _links(self, node: int) -> Iterator[Link]:
        # The two wrap links are the dateline.
        n = self.num_nodes
        yield Link(Direction.EAST, (node + 1) % n, Direction.WEST,
                   advances=node == n - 1)
        yield Link(Direction.WEST, (node - 1) % n, Direction.EAST,
                   advances=node == 0)

    def coords(self, node: int) -> Tuple[int, int]:
        self._check(node)
        return node, 0

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and y == 0):
            raise ValueError(f"coordinates ({x}, {y}) outside ring")
        return x

    def next_port(self, node: int, dst: int) -> Direction:
        self._check(node)
        self._check(dst)
        if node == dst:
            return Direction.LOCAL
        forward = (dst - node) % self.num_nodes
        backward = (node - dst) % self.num_nodes
        return Direction.EAST if forward <= backward else Direction.WEST

    def hop_distance(self, src: int, dst: int) -> int:
        forward = (dst - src) % self.num_nodes
        return min(forward, self.num_nodes - forward)

    def __repr__(self) -> str:
        return f"RingTopology({self.num_nodes})"


class ChipletTopology(Topology):
    """Per-chiplet sub-meshes composed over an interposer.

    A disaggregated server part: ``chiplets_x x chiplets_y`` chiplets,
    each a ``chip_width x chip_height`` XY mesh with one **gateway**
    router at its center tile.  Two interposer variants:

    * ``"mesh"`` — the gateways form a ``chiplets_x x chiplets_y``
      interposer mesh (concentration factor = tiles per chiplet), XY
      routed over chiplet coordinates through the ``INT_*`` ports;
    * ``"star"`` — a central IO die (one extra transit router, the last
      node id) with a dedicated link per gateway (``IO_UP`` up,
      ``IO_DOWN_BASE + c`` down), AMD-Zen3-style.

    Inter-chiplet links carry ``interposer_latency`` cycles per hop
    (on-die hops keep the usual 2).  Node ids place chiplet ``c``'s
    tiles at ``c * tiles_per_chiplet + local``, so every core keeps a
    global ``(x, y)`` grid coordinate and mesh-shaped traffic patterns
    (transpose, hotspot) apply unchanged; the IO die sits off-grid.

    Deadlock freedom mirrors the ring's dateline, keyed on the hierarchy
    instead of a wrap link: every inter-chiplet link advances the escape
    layer.  Layer 0 carries a packet's intra-source-chiplet XY hops
    (acyclic) and layer 1 everything after its first inter-chiplet hop —
    interposer XY or star hops, then intra-destination XY — which is
    acyclic because the hierarchical route never re-enters an earlier
    phase.  The only cross-layer dependency is 0 -> 1, so the layered
    VC dependency graph is acyclic (``tests/test_properties.py`` builds
    that graph and checks it; the runtime deadlock watchdog keeps
    watching on every chiplet run).
    """

    kind = "chiplet"
    vc_layers = CHIPLET_VC_LAYERS

    def __init__(self, chiplets_x: int, chiplets_y: int,
                 chip_width: int, chip_height: int,
                 variant: str = "mesh", interposer_latency: int = 4):
        if chiplets_x < 1 or chiplets_y < 1:
            raise ValueError("chiplet grid dimensions must be positive")
        if chip_width < 1 or chip_height < 1:
            raise ValueError("chiplet mesh dimensions must be positive")
        if chiplets_x * chiplets_y < 2:
            raise ValueError("a chiplet topology needs at least 2 chiplets")
        if variant not in ("mesh", "star"):
            raise ValueError(
                f"unknown interposer variant {variant!r} "
                f"(expected 'mesh' or 'star')"
            )
        if interposer_latency < 1:
            raise ValueError("interposer latency must be positive")
        self.chiplets_x = chiplets_x
        self.chiplets_y = chiplets_y
        self.chip_width = chip_width
        self.chip_height = chip_height
        self.variant = variant
        self.interposer_latency = interposer_latency
        self.num_chiplets = chiplets_x * chiplets_y
        self.tiles_per_chiplet = chip_width * chip_height
        self.num_cores = self.num_chiplets * self.tiles_per_chiplet
        #: The IO die (star variant only): one transit router, last id.
        self.hub: Optional[int] = (
            self.num_cores if variant == "star" else None
        )
        # Global grid view over the cores (the hub sits off-grid).
        self.width = chiplets_x * chip_width
        self.height = chiplets_y * chip_height
        #: Local gateway tile (center of each chiplet's sub-mesh).
        self._gw_local = ((chip_height - 1) // 2) * chip_width \
            + (chip_width - 1) // 2
        super().__init__(self.num_cores + (1 if self.hub is not None else 0))

    def _links(self, node: int) -> Iterator[Link]:
        ilat = self.interposer_latency
        if node == self.hub:
            for chiplet in range(self.num_chiplets):
                yield Link(IO_DOWN_BASE + chiplet, self.gateway(chiplet),
                           IO_UP, ilat, True)
            return
        chiplet, local = divmod(node, self.tiles_per_chiplet)
        ly, lx = divmod(local, self.chip_width)
        yield from _grid_links(lx, ly, self.chip_width, self.chip_height,
                               node - local)
        if local != self._gw_local:
            return
        if self.variant == "star":
            yield Link(IO_UP, self.hub, IO_DOWN_BASE + chiplet, ilat, True)
            return
        cx, cy = self._chiplet_coords(chiplet)
        for direction in CARDINALS:
            dx, dy = _DELTAS[direction]
            nx, ny = cx + dx, cy + dy
            if 0 <= nx < self.chiplets_x and 0 <= ny < self.chiplets_y:
                yield Link(_INT_SHIFT + direction,
                           self.gateway(ny * self.chiplets_x + nx),
                           _INT_SHIFT + _OPPOSITE[direction], ilat, True)

    # -- coordinate helpers -------------------------------------------------

    def chiplet_of(self, node: int) -> int:
        """Chiplet index of a core node (the hub belongs to none)."""
        self._check(node)
        if node == self.hub:
            raise ValueError("the IO die belongs to no chiplet")
        return node // self.tiles_per_chiplet

    def gateway(self, chiplet: int) -> int:
        """The gateway router of ``chiplet``."""
        if not 0 <= chiplet < self.num_chiplets:
            raise ValueError(f"no chiplet {chiplet}")
        return chiplet * self.tiles_per_chiplet + self._gw_local

    def is_gateway(self, node: int) -> bool:
        return node != self.hub \
            and node % self.tiles_per_chiplet == self._gw_local

    def _local(self, node: int) -> Tuple[int, int]:
        l = node % self.tiles_per_chiplet
        return l % self.chip_width, l // self.chip_width

    def _chiplet_coords(self, chiplet: int) -> Tuple[int, int]:
        return chiplet % self.chiplets_x, chiplet // self.chiplets_x

    def coords(self, node: int) -> Tuple[int, int]:
        """Global (x, y) of a core; the hub reports an off-grid point."""
        self._check(node)
        if node == self.hub:
            return self.width, self.height
        cx, cy = self._chiplet_coords(self.chiplet_of(node))
        lx, ly = self._local(node)
        return cx * self.chip_width + lx, cy * self.chip_height + ly

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinates ({x}, {y}) outside chiplet grid")
        cx, lx = divmod(x, self.chip_width)
        cy, ly = divmod(y, self.chip_height)
        chiplet = cy * self.chiplets_x + cx
        return chiplet * self.tiles_per_chiplet + ly * self.chip_width + lx

    @property
    def num_endpoints(self) -> int:
        return self.num_cores

    # -- the routing law ----------------------------------------------------

    def next_port(self, node: int, dst: int) -> Port:
        """Hierarchical source routing: XY to the gateway, across the
        interposer (XY over chiplet coordinates, or the star hop), then
        XY to the destination tile."""
        self._check(node)
        self._check(dst)
        if node == dst:
            return Direction.LOCAL
        if node == self.hub:
            return IO_DOWN_BASE + self.chiplet_of(dst)
        if dst == self.hub:
            # Transit-only node as a destination: route to the gateway,
            # then take the uplink (NEIGHBOR-style traffic never asks
            # for this, but the law stays total).
            target = self.gateway(self.chiplet_of(node))
            if node == target:
                return IO_UP
            return self._intra_port(node, target)
        chiplet = self.chiplet_of(node)
        dst_chiplet = self.chiplet_of(dst)
        if chiplet == dst_chiplet:
            return self._intra_port(node, dst)
        gateway = self.gateway(chiplet)
        if node != gateway:
            return self._intra_port(node, gateway)
        if self.variant == "star":
            return IO_UP
        return _INT_SHIFT + _xy_port(*self._chiplet_coords(chiplet),
                                    *self._chiplet_coords(dst_chiplet))

    def _intra_port(self, node: int, dst: int) -> Direction:
        """XY within one chiplet's sub-mesh (local coordinates)."""
        return _xy_port(*self._local(node), *self._local(dst))

    def hop_distance(self, src: int, dst: int) -> int:
        """Route length: intra hops + interposer hops + intra hops."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        if src == self.hub or dst == self.hub:
            return len(self.route(src, dst)) - 1
        sc, dc = self.chiplet_of(src), self.chiplet_of(dst)
        sx, sy = self._local(src)
        dx, dy = self._local(dst)
        if sc == dc:
            return abs(sx - dx) + abs(sy - dy)
        gx, gy = self._local(self.gateway(0))
        intra = abs(sx - gx) + abs(sy - gy) \
            + abs(gx - dx) + abs(gy - dy)
        if self.variant == "star":
            return intra + 2
        scx, scy = self._chiplet_coords(sc)
        dcx, dcy = self._chiplet_coords(dc)
        return intra + abs(scx - dcx) + abs(scy - dcy)

    def __repr__(self) -> str:
        tail = ":star" if self.variant == "star" else ""
        return (f"ChipletTopology({self.chiplets_x}x{self.chiplets_y}x"
                f"{self.chip_width}x{self.chip_height}{tail}"
                f":ilat={self.interposer_latency})")


# -- topology specs ---------------------------------------------------------

@dataclass(frozen=True)
class TopologySpec:
    """Parsed form of a ``--topology`` spec string."""

    kind: str = "mesh"
    chiplets_x: int = 0
    chiplets_y: int = 0
    chip_width: int = 0
    chip_height: int = 0
    variant: str = "mesh"
    interposer_latency: int = 4

    @property
    def num_cores(self) -> int:
        return (self.chiplets_x * self.chiplets_y
                * self.chip_width * self.chip_height)


def parse_topology_spec(spec: str) -> TopologySpec:
    """Parse a topology spec string, raising ``ValueError`` on junk.

    Grammar::

        mesh
        ring
        chiplet:<CX>x<CY>x<W>x<H>[:star][:ilat=<N>]
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"topology spec must be a non-empty string, "
                         f"got {spec!r}")
    tokens = spec.split(":")
    kind = tokens[0]
    if kind in ("mesh", "ring"):
        if len(tokens) > 1:
            raise ValueError(
                f"topology {kind!r} takes no arguments, got {spec!r}"
            )
        return TopologySpec(kind=kind)
    if kind != "chiplet":
        raise ValueError(
            f"unknown topology {kind!r} (expected mesh, ring, or "
            f"chiplet:CXxCYxWxH[:star][:ilat=N])"
        )
    if len(tokens) < 2:
        raise ValueError(
            f"chiplet spec needs dimensions: chiplet:CXxCYxWxH, "
            f"got {spec!r}"
        )
    dims = tokens[1].split("x")
    if len(dims) != 4:
        raise ValueError(
            f"chiplet dimensions must be CXxCYxWxH (four values), "
            f"got {tokens[1]!r}"
        )
    try:
        cx, cy, w, h = (int(d) for d in dims)
    except ValueError:
        raise ValueError(
            f"chiplet dimensions must be integers, got {tokens[1]!r}"
        ) from None
    if min(cx, cy, w, h) < 1:
        raise ValueError(
            f"chiplet dimensions must be positive, got {tokens[1]!r}"
        )
    variant = "mesh"
    ilat = 4
    seen = set()
    for token in tokens[2:]:
        option = token.partition("=")[0]
        if option in seen:
            raise ValueError(
                f"chiplet option {option!r} given twice in {spec!r}"
            )
        seen.add(option)
        if token == "star":
            variant = "star"
        elif token.startswith("ilat="):
            try:
                ilat = int(token[5:])
            except ValueError:
                raise ValueError(
                    f"bad interposer latency {token!r}"
                ) from None
            if ilat < 1:
                raise ValueError(
                    f"interposer latency must be positive, got {ilat}"
                )
        else:
            raise ValueError(
                f"unknown chiplet option {token!r} "
                f"(expected 'star' or 'ilat=N')"
            )
    if cx * cy < 2:
        raise ValueError(
            f"a chiplet topology needs at least 2 chiplets, got "
            f"{cx}x{cy}"
        )
    return TopologySpec(kind="chiplet", chiplets_x=cx, chiplets_y=cy,
                        chip_width=w, chip_height=h, variant=variant,
                        interposer_latency=ilat)


#: The topologies :func:`build_topology` has built in this process, by
#: parsed spec, width and height.
_SHARED: Dict[Tuple[TopologySpec, int, int], Topology] = {}


def build_topology(spec: str, width: int, height: int) -> Topology:
    """The topology a spec string describes (see
    :func:`parse_topology_spec`).  Mesh and ring take their size from
    ``width`` / ``height`` (a ring of ``width * height`` stops); chiplet
    specs carry their own.

    One object per ``(spec, width, height)`` in a process: every call
    with the same arguments (spellings of one spec count as the same)
    returns it, so the networks of a grid, of a full-system comparison
    and of every restored snapshot share one link table, one set of
    route rows and one route memo.  A topology is never mutated after
    construction (the lazily filled rows and memo hold only what the
    routing law determines), so sharing it changes no simulated event.
    Construct :class:`MeshTopology` and friends directly for a private
    instance."""
    parsed = parse_topology_spec(spec)
    key = (parsed, width, height)
    topo = _SHARED.get(key)
    if topo is None:
        topo = _SHARED[key] = _construct(parsed, width, height)
    return topo


def _construct(parsed: TopologySpec, width: int, height: int) -> Topology:
    if parsed.kind == "mesh":
        return MeshTopology(width, height)
    if parsed.kind == "ring":
        return RingTopology(width * height)
    return ChipletTopology(
        parsed.chiplets_x, parsed.chiplets_y,
        parsed.chip_width, parsed.chip_height,
        variant=parsed.variant,
        interposer_latency=parsed.interposer_latency,
    )
