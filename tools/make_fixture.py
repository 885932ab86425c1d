"""Regenerate the shipped stub fixture.

The extraction entry is keyed by the fingerprint of the rendered extraction
prompt, so rerun this script whenever prompts/as_extraction.txt changes.
"""
import json
import pathlib

from rivercommons.gateway import ChatRequest, request_fingerprint
from rivercommons.config import load_prompts

AS_EXTRACTION_RESPONSE = {
    "action_situations": [
        {
            "name": "water withdrawal between neighbouring farmers",
            "kind": "2-player pairwise cooperation game",
            "participants": 2,
            "actions": ["high", "low"],
            "payoffs": [[[6, 6], [5, 7]], [[9, 3], [5, 2]]],
        },
        {
            "name": "lake fishing",
            "kind": "N-player common pool resource game",
            "participants": 9,
            "actions": ["0", "1", "2", "3", "4", "5"],
        },
    ]
}

DECISION_POOL = [
    {"fields": 3, "fish": 3, "action": "low"},
    {"fields": 5, "fish": 2, "action": "high"},
    {"fields": 2, "fish": 4, "action": "low"},
    {"fields": 4, "fish": 3, "action": "3"},
    {"fields": 6, "fish": 1, "action": "low"},
    {"fields": 1, "fish": 5, "action": "high"},
    {"fields": 3, "fish": 2, "action": "2"},
    {"fields": 7, "fish": 3, "action": "low"},
    {"fields": 2, "fish": 2, "action": "high"},
    {"fields": 5, "fish": 4, "action": "low"},
    {"fields": 4, "fish": 1, "action": "4"},
    {"fields": 3, "fish": 3, "action": "low"},
]


FIXTURE = (pathlib.Path(__file__).resolve().parents[1] / "src" / "rivercommons"
           / "fixtures" / "stub_default.json")


def build_entries() -> list:
    """The fixture's entries: the extraction reply keyed by the fingerprint
    of the packaged extraction prompt, then the unkeyed decision pool."""
    request = ChatRequest(model="stub-model",
                          messages=(("user", load_prompts()["as_extraction"]),))
    entries = [{"fingerprint": request_fingerprint(request),
                "response": json.dumps(AS_EXTRACTION_RESPONSE)}]
    entries.extend({"response": json.dumps(item)} for item in DECISION_POOL)
    return entries


def main():
    entries = build_entries()
    FIXTURE.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} (extraction fingerprint {entries[0]['fingerprint']})")


if __name__ == "__main__":
    main()
