"""Extra coverage for small core types."""

from repro.core.types import Resolution, Role, StreamClass, StreamKey


class TestRole:
    def test_both_combines_flags(self):
        assert Role.BOTH & Role.PUBLISHER
        assert Role.BOTH & Role.SUBSCRIBER
        assert not (Role.NONE & Role.PUBLISHER)


class TestStreamKey:
    def test_hashable_identity(self):
        a = StreamKey("A", Resolution.P720)
        b = StreamKey("A", Resolution.P720)
        c = StreamKey("A", Resolution.P360)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestStreamClass:
    def test_values(self):
        assert StreamClass.SCREEN.value == "screen"
        assert {c.value for c in StreamClass} == {
            "camera",
            "screen",
            "thumbnail",
        }
