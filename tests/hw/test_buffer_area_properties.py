"""Stateful property test: BufferArea behaves like a checked allocator."""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hw import BufferArea, BufferAreaError


class BufferAreaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.capacity = 6
        self.size = 32
        self.area = BufferArea(self.capacity, self.size)
        self.live = {}  # index -> expected content
        self.untouched = set(range(self.capacity))  # never written since the build
        self.counter = 0

    @rule()
    def alloc(self):
        if len(self.live) < self.capacity:
            buf = self.area.alloc()
            assert buf.index not in self.live
            assert buf.length == 0  # always handed out clean
            self.live[buf.index] = b""
        else:
            try:
                self.area.alloc()
                raise AssertionError("alloc beyond capacity must fail")
            except BufferAreaError:
                pass

    @rule()
    def try_alloc(self):
        buf = self.area.try_alloc()
        if len(self.live) < self.capacity:
            assert buf is not None
            self.live[buf.index] = b""
        else:
            assert buf is None

    @rule()
    def write_and_read(self):
        if not self.live:
            return
        index = sorted(self.live)[self.counter % len(self.live)]
        self.counter += 1
        data = bytes([self.counter % 256]) * (1 + self.counter % self.size)
        buf = self.area.buffer(index)
        window = buf.view(self.size)  # taken first: a view aliases later writes
        buf.clear()
        buf.write(data)
        self.live[index] = data
        self.untouched.discard(index)
        assert buf.read() == data
        assert bytes(window[:len(data)]) == data

    @rule()
    def free_one(self):
        if not self.live:
            return
        index = sorted(self.live)[0]
        self.area.free(self.area.buffer(index))
        del self.live[index]

    @rule()
    def double_free_rejected(self):
        if len(self.live) == self.capacity:
            return
        free_index = next(
            i for i in range(self.capacity) if i not in self.live
        )
        try:
            self.area.free(self.area.buffer(free_index))
            raise AssertionError("double free must fail")
        except BufferAreaError:
            pass

    @invariant()
    def free_count_consistent(self):
        assert self.area.free_count == self.capacity - len(self.live)

    @invariant()
    def unwritten_buffers_read_as_zeros(self):
        # allocation and freeing never touch the store
        for index in self.untouched:
            assert self.area.buffer(index).read(self.size) == bytes(self.size)

    @invariant()
    def contents_isolated(self):
        # writes to one buffer never bleed into another
        for index, expected in self.live.items():
            if expected:
                assert self.area.buffer(index).read(len(expected)) == expected


BufferAreaMachine.TestCase.settings = settings(max_examples=30, deadline=None)
TestBufferAreaMachine = BufferAreaMachine.TestCase
