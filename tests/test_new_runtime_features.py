"""Sub-buffers, out-of-order queues, LSB files, transfers."""

import numpy as np
import pytest

from repro import ocl
from repro.harness import measure_transfers, transfer_table
from repro.ocl import InvalidMemObject, InvalidValue, QueueProperties, SubBuffer
from repro.scibench import Recorder, lsb
from repro.scibench.recorder import REGION_KERNEL, REGION_TRANSFER


class TestSubBuffer:
    def test_shares_storage(self, cpu_context):
        parent = cpu_context.buffer_like(np.zeros(256, np.uint8))
        sub = parent.create_sub_buffer(128, 64)
        sub.array[:] = 7
        assert (parent.array[128:192] == 7).all()
        assert (parent.array[:128] == 0).all()

    def test_no_extra_allocation(self, cpu_context):
        parent = cpu_context.create_buffer(size=1024)
        before = cpu_context.allocated_bytes
        parent.create_sub_buffer(0, 512)
        assert cpu_context.allocated_bytes == before

    def test_alignment_enforced(self, cpu_context):
        parent = cpu_context.create_buffer(size=1024)
        with pytest.raises(InvalidValue, match="alignment"):
            parent.create_sub_buffer(7, 64)

    def test_region_bounds(self, cpu_context):
        parent = cpu_context.create_buffer(size=256)
        with pytest.raises(InvalidValue):
            parent.create_sub_buffer(128, 256)
        with pytest.raises(InvalidValue):
            parent.create_sub_buffer(0, 0)

    def test_release_sub_keeps_parent(self, cpu_context):
        parent = cpu_context.create_buffer(size=256)
        sub = parent.create_sub_buffer(0, 128)
        sub.release()
        assert not parent.released
        with pytest.raises(InvalidMemObject):
            _ = sub.array

    def test_parent_release_invalidates_sub(self, cpu_context):
        parent = cpu_context.create_buffer(size=256)
        sub = parent.create_sub_buffer(0, 128)
        parent.release()
        with pytest.raises(InvalidMemObject):
            _ = sub.array

    def test_usable_as_kernel_arg(self, cpu_context, cpu_queue):
        parent = cpu_context.buffer_like(np.zeros(256, np.uint8))
        sub = parent.create_sub_buffer(128, 128)

        def body(nd, region):
            region[:] = 9

        program = ocl.Program(cpu_context,
                              [ocl.KernelSource("fill", body)]).build()
        kernel = program.create_kernel("fill").set_args(sub)
        cpu_queue.enqueue_nd_range_kernel(kernel, (128,))
        assert (parent.array[128:] == 9).all()
        assert (parent.array[:128] == 0).all()


class TestOutOfOrderQueue:
    def _queue(self, ctx, ooo):
        props = QueueProperties.PROFILING_ENABLE
        if ooo:
            props |= QueueProperties.OUT_OF_ORDER_EXEC_MODE_ENABLE
        return ocl.CommandQueue(ctx, properties=props)

    def test_in_order_serialises(self, cpu_context):
        q = self._queue(cpu_context, ooo=False)
        buf = cpu_context.create_buffer(size=1 << 20)
        e1 = q.enqueue_fill_buffer(buf, 1)
        e2 = q.enqueue_fill_buffer(buf, 2)
        assert e2.start_ns >= e1.end_ns

    def test_out_of_order_overlaps(self, cpu_context):
        q = self._queue(cpu_context, ooo=True)
        a = cpu_context.create_buffer(size=1 << 20)
        b = cpu_context.create_buffer(size=1 << 20)
        e1 = q.enqueue_fill_buffer(a, 1)
        e2 = q.enqueue_fill_buffer(b, 2)
        assert e2.start_ns < e1.end_ns  # independent commands overlap

    def test_out_of_order_respects_wait_list(self, cpu_context):
        q = self._queue(cpu_context, ooo=True)
        a = cpu_context.create_buffer(size=1 << 20)
        e1 = q.enqueue_fill_buffer(a, 1)
        e2 = q.enqueue_fill_buffer(a, 2, wait_for=[e1])
        assert e2.start_ns >= e1.end_ns

    def test_device_clock_is_latest_completion(self, cpu_context):
        q = self._queue(cpu_context, ooo=True)
        big = cpu_context.create_buffer(size=1 << 22)
        small = cpu_context.create_buffer(size=1 << 10)
        e_big = q.enqueue_fill_buffer(big, 0)
        q.enqueue_fill_buffer(small, 0)
        assert q.device_time_ns == e_big.end_ns


class TestLSBFormat:
    def _recorder(self):
        rec = Recorder("fft")
        rec.record(REGION_KERNEL, 1.5e-3)
        rec.record(REGION_KERNEL, 1.6e-3)
        rec.record(REGION_TRANSFER, 2.0e-4)
        return rec

    def test_round_trip(self):
        rec = self._recorder()
        out = lsb.loads(lsb.dumps(rec, system="i7-6700K"))
        assert out.name == "fft"
        assert out.count(REGION_KERNEL) == 2
        assert out.times_s(REGION_TRANSFER)[0] == pytest.approx(2.0e-4)

    def test_header_contents(self):
        text = lsb.dumps(self._recorder(), system="GTX 1080", rank=3)
        assert text.startswith("# LibSciBench")
        assert "# Rank: 3" in text
        assert "# System: GTX 1080" in text
        assert "# Timer overhead: 6 ns" in text

    def test_file_io(self, tmp_path):
        path = tmp_path / lsb.default_filename("fft")
        assert path.name == "lsb.fft.r0"
        lsb.save(path, self._recorder())
        assert lsb.load(path).count() == 3

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            lsb.loads("not a header\n1 kernel 2 3\n")
        with pytest.raises(ValueError):
            lsb.loads("id region time_us overhead_ns\n1 kernel 2\n")


class TestTransfers:
    def test_gpu_pays_pcie(self):
        gpu = measure_transfers("fft", "small", "GTX 1080")
        cpu = measure_transfers("fft", "small", "i7-6700K")
        assert gpu.to_device_s > cpu.to_device_s
        assert gpu.bytes_to_device == cpu.bytes_to_device

    def test_bytes_match_buffers(self):
        m = measure_transfers("fft", "tiny", "K20m")
        assert m.bytes_to_device == 2048 * 8       # the complex64 signal
        assert m.bytes_from_device == 2048 * 8     # the spectrum

    def test_table_rows(self):
        rows = transfer_table(["crc", "csr"], size="tiny",
                              devices=("i7-6700K", "GTX 1080"))
        assert len(rows) == 4
        assert all(r.total_s > 0 for r in rows)
        assert "to device" in rows[0].as_row()
