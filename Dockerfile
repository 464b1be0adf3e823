# Inference service container. Mount a directory with trained models, word
# vectors and a registry.json describing them:
#
#   docker build -t gner .
#   docker run -p 8080:8080 -v /path/to/models:/models gner \
#       gner serve --registry /models/registry.json --bind 0.0.0.0
#
# GNER_BIND / GNER_PORT override the defaults when no flags are given.
FROM python:3.11-slim

WORKDIR /app
COPY pyproject.toml README.md ./
COPY src ./src
RUN pip install --no-cache-dir .

EXPOSE 8080
# `gner serve` runs one process per CPU. One BLAS thread in each: otherwise
# every process starts an OpenBLAS pool of one thread per CPU, N processes
# run N*N threads on N CPUs, and the pool is shut down and restarted across
# the fork.
ENV OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
ENV GNER_BIND=0.0.0.0 GNER_PORT=8080
CMD ["gner", "serve", "--registry", "/models/registry.json"]
