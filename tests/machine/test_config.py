"""Machine configuration: paper parameters and validation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.machine.config import (
    MachineConfig,
    MemoryConfig,
    NetworkConfig,
    TlbConfig,
)


class TestPaperConfiguration:
    """Section 5's machine parameters are the defaults."""

    def test_eight_processors_at_300mhz(self):
        m = MachineConfig.flash_ccnuma()
        assert m.n_cpus == 8
        assert m.n_nodes == 8
        assert m.cpu_mhz == 300

    def test_tlb_64_entries(self):
        assert MachineConfig.flash_ccnuma().tlb.entries == 64

    def test_ccnuma_latencies(self):
        m = MachineConfig.flash_ccnuma()
        assert m.memory.local_ns == 300
        assert m.memory.remote_ns == 1200
        assert m.remote_to_local_ratio == pytest.approx(4.0)

    def test_ccnow_latency(self):
        m = MachineConfig.flash_ccnow()
        assert m.memory.remote_ns == 3000
        assert m.memory.local_ns == 300

    def test_zero_network_has_no_hop_delay(self):
        m = MachineConfig.zero_network()
        assert m.network.hop_ns == 0
        assert m.memory.remote_ns == m.memory.local_ns


class TestTopology:
    def test_node_of_cpu_one_per_node(self):
        m = MachineConfig.flash_ccnuma()
        assert [m.node_of_cpu(c) for c in range(8)] == list(range(8))

    def test_cpus_of_node(self):
        m = MachineConfig(n_cpus=8, n_nodes=4)
        assert list(m.cpus_of_node(0)) == [0, 1]
        assert list(m.cpus_of_node(3)) == [6, 7]
        assert m.node_of_cpu(7) == 3

    def test_node_of_cpu_out_of_range(self):
        m = MachineConfig.flash_ccnuma()
        with pytest.raises(ConfigurationError):
            m.node_of_cpu(8)
        with pytest.raises(ConfigurationError):
            m.cpus_of_node(9)

    def test_total_memory(self):
        m = MachineConfig.flash_ccnuma()
        assert m.total_frames == 8 * 4096
        assert m.total_memory_bytes == 8 * 4096 * 4096


class TestValidation:
    def test_remote_below_local_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryConfig(local_ns=1000, remote_ns=500)

    def test_tlb_needs_entries(self):
        with pytest.raises(ConfigurationError):
            TlbConfig(entries=0)

    def test_network_utilisation_bounds(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(max_utilisation=1.0)

    @pytest.mark.parametrize("config, field", [
        (MemoryConfig, "controller_occupancy_ns"),
        (MemoryConfig, "remote_extra_occupancy_ns"),
        (NetworkConfig, "link_occupancy_ns"),
    ])
    @pytest.mark.parametrize("value", [160.5, 0.25, float("inf"),
                                       float("nan")])
    def test_occupancies_must_be_whole_ns(self, config, field, value):
        with pytest.raises(ConfigurationError) as info:
            config(**{field: value})
        message = str(info.value)
        assert field in message and "\n" not in message

    def test_integral_float_occupancy_accepted(self):
        assert MemoryConfig(controller_occupancy_ns=160.0)
        assert NetworkConfig(link_occupancy_ns=60.0)

    def test_cpus_must_divide_nodes(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(n_cpus=6, n_nodes=4)


class TestWithHelpers:
    def test_with_memory(self):
        m = MachineConfig.flash_ccnuma().with_memory(remote_ns=2400)
        assert m.memory.remote_ns == 2400
        assert m.memory.local_ns == 300  # untouched

    def test_with_network(self):
        m = MachineConfig.flash_ccnuma().with_network(hop_ns=999)
        assert m.network.hop_ns == 999
