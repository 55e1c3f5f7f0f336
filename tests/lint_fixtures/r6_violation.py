"""R6 fixture: library code that prints instead of returning."""


def report(load: float) -> None:
    print(f"load = {load}")


def debug(values: list[int]) -> int:
    total = sum(values)
    print("total", total, flush=True)
    return total
