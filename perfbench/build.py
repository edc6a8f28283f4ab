#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (``src/main/scala``) together with the
benchmark's own (``perfbench/src``) in one ``scalac`` pass. The compiler and
every library come from the Spark distribution (``$SPARK_HOME/jars``, which
ships scala-compiler 2.13) plus the DuckDB JDBC jar from the local coursier,
Maven or Ivy cache, so no dependency is resolved and sbt is not involved.
Output goes to ``.bench_build/perfbench/classes`` and is rebuilt only when a
source changes.

    python3 perfbench/build.py          # build (or reuse) the classes
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CLASSES = BUILD / "classes"


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = Path(home, "bin", "java") if home else None
    if exe and exe.exists():
        return str(exe)
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH and JAVA_HOME is not set")
    return found


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("SPARK_HOME is not set and spark-submit is not on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home, "jars")
    if not list(jars.glob("scala-compiler-2.13*.jar")):
        raise BuildError(f"{jars} holds no scala-compiler 2.13 jar")
    return jars


def duckdb_jar() -> str:
    home = Path.home()
    roots = [os.environ.get("COURSIER_CACHE"), home / ".cache" / "coursier",
             home / ".m2" / "repository", home / ".ivy2"]
    for r in roots:
        if r and Path(r).is_dir():
            hits = sorted(glob.glob(f"{r}/**/duckdb_jdbc-1.0.0.jar", recursive=True))
            if hits:
                return hits[0]
    raise BuildError("duckdb_jdbc-1.0.0.jar not found in the coursier, Maven or Ivy cache")


def sources() -> list:
    main = ROOT / "src" / "main" / "scala" / "repro"
    own = ROOT / "perfbench" / "src"
    if not main.is_dir():
        raise BuildError(f"program sources missing: {main.relative_to(ROOT)}")
    files = sorted(main.rglob("*.scala")) + sorted(own.rglob("*.scala"))
    if not any(f.name == "Main.scala" for f in own.rglob("*.scala")):
        raise BuildError("benchmark sources missing")
    return files


def classpath() -> str:
    """Runtime class path: compiled classes, the benchmark's resources, Spark's
    jars, DuckDB."""
    return os.pathsep.join([str(CLASSES), str(ROOT / "perfbench" / "resources"),
                            f"{spark_jars()}/*", duckdb_jar()])


def build() -> Path:
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    digest = h.hexdigest()
    stamp = CLASSES / "SOURCES.sha256"
    if stamp.exists() and stamp.read_text() == digest:
        return CLASSES
    tmp = BUILD / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    jars = spark_jars()
    cmd = [java(), "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-deprecation:false", "-nowarn", "-d", str(tmp),
           "-cp", os.pathsep.join([f"{jars}/*", duckdb_jar()])] + [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if r.returncode != 0:
        raise BuildError(f"scalac failed with exit code {r.returncode}")
    (tmp / "SOURCES.sha256").write_text(digest)
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
