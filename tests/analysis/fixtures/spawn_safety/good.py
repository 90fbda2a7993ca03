"""Fixture: picklable recipes and module-level targets (0 findings)."""
from multiprocessing import Process


def _worker_main(conn):
    conn.recv()


def plain_recipe(path, spec):
    return ShardFactory(path=str(path), spec=spec)  # noqa: F821


def module_target(conn):
    return Process(target=_worker_main, args=(conn,))


def data_on_pipe(parent_conn, pid, data):
    parent_conn.send(("write", pid, data))


def parent_side_closure(executor, driver, pid):
    # Thread-pool thunks never cross a process boundary; not flagged.
    return executor.submit(lambda: driver.read_page(pid))
