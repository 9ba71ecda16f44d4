"""Bounded cost as a tested property: quadrupling an input's size at most
about quadruples compile's work.

Each shape builds a 3.x spec of size n. `compile_file` runs on it at n
and at 4n, timed with `time.process_time` (min of 3). The test fails when
the ratio is above 8: linear work gives 4, quadratic 16.
"""

from __future__ import annotations

import json
import time

import pytest

from automcp.pipeline import compile_file

N = 2000
RATIO_MAX = 8
CJK = 0x4E00  # each of the n characters from here sanitizes to nothing
OK = {"responses": {"200": {"description": "ok"}}}


def spec(paths: dict, schemes: dict | None = None) -> dict:
    tree = {"openapi": "3.0.3", "info": {"title": "T", "version": "1"},
            "servers": [{"url": "https://api.example"}], "paths": paths}
    if schemes:
        tree["components"] = {"securitySchemes": schemes}
    return tree


def colliding_operations(n: int) -> dict:
    """n operations at `/a<c>b`: every tool name's base is `get_ab`."""
    return spec({f"/a{chr(CJK + i)}b": {"get": OK} for i in range(n)})


def colliding_parameters(n: int) -> dict:
    """One operation with n query parameters: every argument's base is `param`."""
    params = [{"name": chr(CJK + i), "in": "query", "schema": {"type": "string"}}
              for i in range(n)]
    return spec({"/a": {"get": {**OK, "parameters": params}}})


def colliding_env_roles(n: int) -> dict:
    """n bearer schemes: every env var's base is `T_TOKEN`."""
    return spec({"/a": {"get": OK}},
                {chr(CJK + i): {"type": "http", "scheme": "bearer"} for i in range(n)})


def tool_names(api) -> list[str]:
    return [t.tool_name for t in api.manifest.tools]


def argument_names(api) -> list[str]:
    return [p.sanitized_name for p in api.manifest.tools[0].endpoint.parameters]


def env_vars(api) -> list[str]:
    return [b.env_var for b in api.bindings]


SHAPES = {  # shape: (spec builder, the names it allocates, their shared base)
    "operations": (colliding_operations, tool_names, "get_ab"),
    "parameters": (colliding_parameters, argument_names, "param"),
    "env-roles": (colliding_env_roles, env_vars, "T_TOKEN"),
}


def compile_seconds(tmp_path, shape: str) -> tuple[float, float]:
    """The least CPU time of 3 `compile_file` runs at N and at 4N. The runs
    alternate, so that a slow spell on the host falls on both sizes."""
    build, names, base = SHAPES[shape]
    paths = {}
    for n in (N, 4 * N):
        paths[n] = tmp_path / f"{n}.json"
        paths[n].write_text(json.dumps(build(n)), encoding="utf-8")
    times: dict[int, list[float]] = {N: [], 4 * N: []}
    for _ in range(3):
        for n, path in paths.items():
            start = time.process_time()
            api = compile_file(path)
            times[n].append(time.process_time() - start)
            assert names(api)[-1] == f"{base}_{n}"
    return min(times[N]), min(times[4 * N])


@pytest.mark.parametrize("shape", SHAPES)
def test_colliding_names_cost_linear_time(tmp_path, shape):
    small, large = compile_seconds(tmp_path, shape)
    assert large / small <= RATIO_MAX, (
        f"{shape}: {N} took {small:.3f} s and {4 * N} took {large:.3f} s")
