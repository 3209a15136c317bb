"""A raw-event recorder: the sink tests attach to assert on the events
themselves (fields, order, attrs) rather than on their fold."""

from __future__ import annotations

from typing import List


class Events:
    """Keeps every event it is sent, in order."""

    def __init__(self):
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def named(self, name: str) -> List[dict]:
        return [e for e in self.events if e["name"] == name]
