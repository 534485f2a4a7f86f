# fbcheck-fixture-path: src/repro/store/locked_ok.py
"""FB-LOCKED must pass: every guarded access sits inside its lock."""
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0  # guarded-by: self._lock

    def bump(self):
        with self._lock:
            self.total += 1

    def _bump_held(self):  # holds-lock: self._lock
        self.total += 1

    def snapshot(self):
        with self._lock:
            current = self.total
        return current

    def try_finally_inside_the_with(self):
        with self._lock:
            try:
                self.total += 1
            except ValueError:
                self.total = 0
                raise
            finally:
                self.total -= 1

    def nested_def_takes_the_lock(self):
        def later():
            with self._lock:
                return self.total

        with self._lock:
            self.total += 1
        return later

    def handler_takes_the_lock(self):
        try:
            return 1
        except ValueError:
            with self._lock:
                self.total += 1
        return 0

    def loops_inside_the_with(self, items):
        with self._lock:
            for item in items:
                if not item:
                    continue
                self.total += item
                if self.total > 9:
                    break
            return self.total

    async def async_with(self):
        async with self._lock:
            self.total += 1
