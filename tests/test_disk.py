"""Unit tests for the disk managers."""

import pytest

from repro.errors import StorageError
from repro.storage.disk import DiskManager, FileDisk, InMemoryDisk
from repro.storage.pages import Page


@pytest.fixture(params=["memory", "file"])
def disk(request, tmp_path):
    if request.param == "memory":
        yield InMemoryDisk()
    else:
        with FileDisk(tmp_path / "data.db") as file_disk:
            yield file_disk


class TestDiskManagers:
    def test_allocate_sequential_ids(self, disk):
        assert disk.allocate() == 0
        assert disk.allocate() == 1
        assert disk.page_count == 2
        assert disk.stats.allocations == 2

    def test_write_and_read_back(self, disk):
        page_id = disk.allocate()
        page = Page(page_id)
        page.insert(b"payload")
        disk.write_page(page)
        loaded = disk.read_page(page_id)
        assert loaded.records() == [b"payload"]

    def test_io_counters(self, disk):
        page_id = disk.allocate()
        disk.write_page(Page(page_id))
        disk.read_page(page_id)
        disk.read_page(page_id)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.total == 3

    def test_stats_reset_and_snapshot(self, disk):
        disk.allocate()
        snapshot = disk.stats.snapshot()
        disk.stats.reset()
        assert snapshot.allocations == 1
        assert disk.stats.allocations == 0

    def test_unallocated_read_rejected(self, disk):
        with pytest.raises(StorageError):
            disk.read_page(42)

    def test_unallocated_write_rejected(self, disk):
        with pytest.raises(StorageError):
            disk.write_page(Page(42))

    def test_write_clears_dirty(self, disk):
        page_id = disk.allocate()
        page = Page(page_id)
        page.insert(b"x")
        assert page.dirty
        disk.write_page(page)
        assert not page.dirty


class TestFileDisk:
    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "persist.db"
        with FileDisk(path) as disk:
            page_id = disk.allocate()
            page = Page(page_id)
            page.insert(b"durable")
            disk.write_page(page)
        with FileDisk(path) as disk:
            assert disk.page_count == 1
            assert disk.read_page(0).records() == [b"durable"]

    def test_closed_disk_rejects_io(self, tmp_path):
        disk = FileDisk(tmp_path / "closed.db")
        disk.allocate()
        disk.close()
        with pytest.raises(StorageError, match="closed"):
            disk.read_page(0)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "broken.db"
        path.write_bytes(b"not a page")
        with pytest.raises(StorageError, match="whole number"):
            FileDisk(path)


class TestReadViews:
    def test_view_matches_read_page(self, disk):
        page_id = disk.allocate()
        page = Page(page_id)
        page.insert(b"view parity")
        disk.write_page(page)
        view = disk.read_view(page_id)
        assert view is not None
        assert bytes(view) == disk.read_page(page_id).to_bytes()
        assert disk.stats.view_reads >= 1

    def test_view_reflects_later_writes(self, disk):
        page_id = disk.allocate()
        first = Page(page_id)
        first.insert(b"one")
        disk.write_page(first)
        disk.read_view(page_id)
        second = Page(page_id)
        second.insert(b"two")
        disk.write_page(second)
        # a *new* view must observe the overwrite
        assert bytes(disk.read_view(page_id)) == second.to_bytes()

    def test_view_survives_file_growth(self, tmp_path):
        with FileDisk(tmp_path / "grow.db") as disk:
            first_id = disk.allocate()
            page = Page(first_id)
            page.insert(b"before growth")
            disk.write_page(page)
            early_view = bytes(disk.read_view(first_id))
            # grow well past the initial mapping, then map the tail
            for _ in range(8):
                last_id = disk.allocate()
            tail = Page(last_id)
            tail.insert(b"after growth")
            disk.write_page(tail)
            assert bytes(disk.read_view(last_id)) == tail.to_bytes()
            assert bytes(disk.read_view(first_id)) == early_view

    def test_view_unallocated_rejected(self, disk):
        with pytest.raises(StorageError):
            disk.read_view(13)

    def test_mmap_disabled_returns_none(self):
        # a manager that serves no views says so through the base
        # class (``BufferPool.fetch_view`` then reads the page)
        disk = InMemoryDisk()
        assert DiskManager.read_view(disk, disk.allocate()) is None

    def test_exported_view_does_not_break_close(self, tmp_path):
        disk = FileDisk(tmp_path / "export.db")
        page_id = disk.allocate()
        disk.write_page(Page(page_id))
        view = disk.read_view(page_id)
        disk.close()  # must not raise even while `view` is alive
        assert len(view) > 0

    def test_views_persist_across_reopen(self, tmp_path):
        path = tmp_path / "reopen.db"
        with FileDisk(path) as disk:
            page_id = disk.allocate()
            page = Page(page_id)
            page.insert(b"mapped later")
            disk.write_page(page)
        with FileDisk(path) as disk:
            assert bytes(disk.read_view(page_id)) == page.to_bytes()
