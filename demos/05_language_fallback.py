"""Map an unsupported language onto the nearest supported one.

Resolution walks a fixed ladder: already supported -> static override ->
cached earlier answer -> live chat-completion query. A canned transport
stands in for the network here so the demo runs offline.
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from polyemo.dense_features import (
    FallbackPolicy,
    LlmBackendConfig,
    render_prompt,
    resolve_language,
)

root = Path(tempfile.mkdtemp(prefix="polyemo-demo-"))
atexit.register(shutil.rmtree, root)  # the demo leaves nothing behind
cache = root / "cache.tsv"
policy = FallbackPolicy(
    supported_languages=("am", "en", "sw"),
    static_map={"ti": "am"},
    display_names={
        "am": "Amharic",
        "en": "English",
        "sw": "Swahili",
        "ti": "Tigrinya",
        "om": "Oromo",
    },
    llm_backend=LlmBackendConfig(endpoint="http://example.invalid/chat", model="demo"),
    cache_path=str(cache),
)

print("the rendered query for an unknown language:")
names = [policy.name_of(c) for c in policy.supported_languages]
print(render_prompt(policy.llm_backend, names, policy.name_of("om")))


def canned_transport(config, prompt):
    print("  [transport called]")
    return "Those options considered, Amharic is the closest relative of Oromo."


for lang in ("en", "ti", "om", "om"):
    code, how = resolve_language(lang, policy, transport=canned_transport)
    print(f"resolve {lang!r:5} -> {code!r}  via {how}")

print(f"\ncache file ({cache}):")
print(" ", cache.read_text(encoding="utf-8").strip())
print("the second 'om' lookup hit the cache, so the transport ran once")
