"""R6 fixture (clean): values are returned; a method named print is legal."""

import sys


def report(load: float) -> str:
    return f"load = {load}"


def write_line(text: str) -> None:
    sys.stderr.write(text + "\n")


class Printer:
    def print(self, text: str) -> str:
        return text


def use(printer: Printer) -> str:
    return printer.print("ok")
