"""Inter-chip links: 16 bits wide at 500 MHz.

Each chip drives six output links (one per direction) and receives on
six input links; a seventh connects to the host. One link moves 2 bytes
per cycle — 1 GB/s at 500 MHz, twelve links giving the paper's 12 GB/s
chip I/O ceiling. A link is a busy timeline: messages serialize on it,
and each hop adds a small router latency.
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.engine.resources import TimelineResource
from repro.errors import ConfigError
from repro.system.topology import DIRECTIONS, Coord, Topology

#: Cycles of router/SerDes latency added per hop.
HOP_LATENCY = 10


class ChipLink(TimelineResource):
    """One directed inter-chip link."""

    def __init__(self, name: str, config: ChipConfig) -> None:
        super().__init__(name)
        self.bytes_per_cycle = config.link_width_bits // 8
        self.bytes_sent = 0

    def transfer(self, time: int, n_bytes: int) -> int:
        """Serialize *n_bytes* onto the link; returns arrival time."""
        cycles = max(1, -(-n_bytes // self.bytes_per_cycle))
        grant = self.reserve(time, cycles)
        self.bytes_sent += n_bytes
        return grant + cycles + HOP_LATENCY


class LinkFabric:
    """Every directed link of a topology, keyed by (source coord, dir).

    Two routing modes:

    * ``store_and_forward`` (default) — each hop receives the whole
      message before forwarding: per-hop cost = serialization + router
      latency. Simple, and what the halo workload's kilobyte messages
      see either way.
    * ``cut_through`` — wormhole-style: the head flit advances after
      only the router latency, the body streams behind it, and each
      link is held for one serialization time. Multi-hop latency is
      one serialization + hops x router latency instead of hops x both.
    """

    def __init__(self, topology: Topology, config: ChipConfig,
                 routing: str = "store_and_forward") -> None:
        if routing not in ("store_and_forward", "cut_through"):
            raise ConfigError(f"unknown routing mode {routing!r}")
        self.routing = routing
        self.topology = topology
        self.config = config
        self._links: dict[tuple[Coord, str], ChipLink] = {}
        for chip_id in range(topology.n_chips):
            coord = topology.coord(chip_id)
            for direction in DIRECTIONS:
                if topology.step(coord, direction) is not None:
                    name = f"link{coord}{direction}"
                    self._links[(coord, direction)] = ChipLink(name, config)
        #: One host link per chip (the paper's seventh link).
        self.host_links = {
            topology.coord(chip_id): ChipLink(
                f"host{topology.coord(chip_id)}", config)
            for chip_id in range(topology.n_chips)
        }

    def link(self, coord: Coord, direction: str) -> ChipLink:
        """The directed link leaving *coord* toward *direction*."""
        try:
            return self._links[(coord, direction)]
        except KeyError:
            raise ConfigError(
                f"no link {direction} out of {coord} in this topology"
            ) from None

    def send(self, time: int, src: Coord, dst: Coord, n_bytes: int) -> int:
        """Route a message dimension-ordered; returns delivery time."""
        if src == dst:
            return time
        route = self.topology.route(src, dst)
        if self.routing == "store_and_forward":
            arrival = time
            for hop_src, direction in route:
                arrival = self.link(hop_src, direction).transfer(
                    arrival, n_bytes)
            return arrival
        # Cut-through: the head advances one router latency per hop;
        # each link is occupied for one serialization time, pipelined.
        head = time
        tail = time
        for hop_src, direction in route:
            link = self.link(hop_src, direction)
            cycles = max(1, -(-n_bytes // link.bytes_per_cycle))
            grant = link.reserve(head, cycles)
            link.bytes_sent += n_bytes
            head = grant + HOP_LATENCY
            tail = grant + cycles + HOP_LATENCY
        return tail

    @property
    def total_bytes(self) -> int:
        """Traffic across the whole fabric."""
        return sum(link.bytes_sent for link in self._links.values())

    def peak_chip_io_bytes_per_second(self) -> float:
        """The paper's 12 GB/s per-chip I/O ceiling."""
        per_link = (self.config.link_width_bits / 8) * self.config.link_hz
        return per_link * 12
