#!/usr/bin/env bash
# End-to-end serving smoke test: generate a synthetic graph, build its
# index in both formats, check the -j 4 and the -external builds against
# the serial in-memory one, start hopdb-serve (heap, then -disk), and check
# that /v1/distance and /v1/batch answer exactly what hopdb-query answers
# on the same index.
# Then the cluster stage: a primary + two pull replicas behind
# hopdb-router, an update applied through the router's admin proxy,
# replication convergence, read-your-writes through the router, and a
# replica kill mid-serving with zero failed queries.
# Then the shard stage: the same graph cut into 4 rank shards plus a
# hub tier, each leaf served by hopdb-serve -shard, the router
# scatter-gathering with the hub router-resident — answers diffed
# byte-for-byte against hopdb-query, per-leaf resident bytes bounded
# by 1/N of the index plus the hub, and a shard-replica kill mid-storm.
# Run from the repo root (CI runs it as a dedicated job); needs curl.
set -euo pipefail

PORT="${SMOKE_PORT:-18357}"
BASE="http://127.0.0.1:$PORT"
tmp=$(mktemp -d)
pid=""
pids=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

wait_healthy() {
  for _ in $(seq 1 50); do
    curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$pid" 2>/dev/null || { echo "hopdb-serve died during startup" >&2; return 1; }
    sleep 0.2
  done
  curl -fsS "$BASE/v1/healthz" >/dev/null
}

# wait_healthy_at <base-url> <pid>
wait_healthy_at() {
  for _ in $(seq 1 50); do
    curl -fsS "$1/v1/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$2" 2>/dev/null || { echo "server at $1 died during startup" >&2; return 1; }
    sleep 0.2
  done
  curl -fsS "$1/v1/healthz" >/dev/null
}

echo "== building binaries"
go build -o "$tmp/bin/" ./cmd/...

echo "== generating and indexing a synthetic graph"
"$tmp/bin/hopdb-gen" -model glp -n 500 -density 4 -seed 7 -o "$tmp/g.txt"
"$tmp/bin/hopdb-build" -in "$tmp/g.txt" -o "$tmp/g.idx"

echo "== parallel build matches the serial build byte-for-byte, and does the same work"
"$tmp/bin/hopdb-gen" -model glp -n 20000 -density 4 -seed 23 -o "$tmp/big.txt"
"$tmp/bin/hopdb-build" -in "$tmp/big.txt" -j 1 -stats -o "$tmp/big_serial.idx" 2>"$tmp/serial.stats"
"$tmp/bin/hopdb-build" -in "$tmp/big.txt" -j 4 -stats -o "$tmp/big_parallel.idx" 2>"$tmp/parallel.stats"
cmp "$tmp/big_serial.idx" "$tmp/big_parallel.idx" \
  || { echo "parallel build diverges from serial" >&2; exit 1; }
# The per-iteration counters (rule firings, candidates, pruned,
# survivors, label size) with the trailing wall-clock time stripped: a
# scheduling bug that changes the work but not the output fails here.
iter_counters() { grep '^  iter ' "$1" | sed 's/ ([^)]*)$//'; }
[ -n "$(iter_counters "$tmp/serial.stats")" ] \
  || { echo "hopdb-build -stats printed no iteration rows" >&2; exit 1; }
diff <(iter_counters "$tmp/serial.stats") <(iter_counters "$tmp/parallel.stats") \
  || { echo "parallel build's per-iteration counters differ from serial" >&2; exit 1; }

echo "== external build matches the in-memory build byte-for-byte, and does the same work"
# -memory 256 -block 16: the first iteration's 29k candidates sort in
# 114 runs, merged in two passes at fan-in 15.
"$tmp/bin/hopdb-build" -in "$tmp/g.txt" -stats -o "$tmp/g_mem.idx" 2>"$tmp/mem.stats"
"$tmp/bin/hopdb-build" -in "$tmp/g.txt" -external -memory 256 -block 16 -stats -o "$tmp/g_ext.idx" 2>"$tmp/ext.stats"
cmp "$tmp/g_mem.idx" "$tmp/g_ext.idx" \
  || { echo "external build diverges from the in-memory build" >&2; exit 1; }
grep -Eq '^  iter .* reads=[0-9]+ writes=[0-9]+ \(' "$tmp/ext.stats" \
  || { echo "hopdb-build -external -stats printed no per-iteration I/O" >&2; exit 1; }
diff <(iter_counters "$tmp/mem.stats") <(iter_counters "$tmp/ext.stats" | sed 's/ reads=[0-9]* writes=[0-9]*$//') \
  || { echo "external build's per-iteration counters differ from the in-memory build" >&2; exit 1; }

echo "== killing a checkpointed build mid-flight and resuming it"
"$tmp/bin/hopdb-build" -in "$tmp/big.txt" -j 4 -checkpoint "$tmp/ck" -o "$tmp/big_resumed.idx" &
bpid=$!
# Kill as soon as the first iteration checkpoint lands. If the build
# outruns the poll and finishes, the resume below replays a done
# checkpoint — the byte-identity check holds either way.
for _ in $(seq 1 400); do
  [ -f "$tmp/ck/manifest.json" ] && break
  kill -0 "$bpid" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$bpid" 2>/dev/null || true
wait "$bpid" 2>/dev/null || true
[ -f "$tmp/ck/manifest.json" ] || { echo "build died before writing any checkpoint" >&2; exit 1; }
rm -f "$tmp/big_resumed.idx"
"$tmp/bin/hopdb-build" -in "$tmp/big.txt" -j 4 -checkpoint "$tmp/ck" -resume \
  -o "$tmp/big_resumed.idx" 2>"$tmp/resume.err"
grep -Eq '^(resumed:|built:)' "$tmp/resume.err" \
  || { echo "resume produced no build summary: $(cat "$tmp/resume.err")" >&2; exit 1; }
cmp "$tmp/big_serial.idx" "$tmp/big_resumed.idx" \
  || { echo "killed-and-resumed build diverges from the uninterrupted build" >&2; exit 1; }

echo "== starting hopdb-serve on $BASE"
"$tmp/bin/hopdb-serve" -idx "$tmp/g.idx" -addr "127.0.0.1:$PORT" -cache 1000 &
pid=$!
wait_healthy

echo "== querying the same pairs through hopdb-query and the server"
# Deterministic pair list covering in-range, s==t, and out-of-range ids.
awk 'BEGIN { for (i = 0; i < 60; i++) print (i * 37) % 500, (i * 91 + 13) % 500; print 3, 3; print 0, 9999 }' >"$tmp/pairs.txt"
# Exit 1 just flags that some pair was unreachable (0 9999 is); any other
# nonzero status is a real failure.
"$tmp/bin/hopdb-query" -idx "$tmp/g.idx" -q "$tmp/pairs.txt" >"$tmp/cli.txt" 2>"$tmp/cli.err" || [ $? -eq 1 ]
# A heap-opened unweighted index must auto-engage the compact kernel;
# the summary line names the kernel that actually served.
grep -q 'kernel=compact' "$tmp/cli.err" || { echo "hopdb-query did not engage the compact kernel: $(cat "$tmp/cli.err")" >&2; exit 1; }

# hopdb-query prints "s t d" or "s t unreachable"; render the JSON the
# server documents for the same answers.
awk '{
  if ($3 == "unreachable") printf("{\"s\":%s,\"t\":%s,\"reachable\":false}\n", $1, $2);
  else printf("{\"s\":%s,\"t\":%s,\"distance\":%s,\"reachable\":true}\n", $1, $2, $3);
}' "$tmp/cli.txt" >"$tmp/expected.jsonl"

while read -r s t; do
  curl -fsS "$BASE/v1/distance?s=$s&t=$t"
done <"$tmp/pairs.txt" >"$tmp/served.jsonl"
diff -u "$tmp/expected.jsonl" "$tmp/served.jsonl" || { echo "/v1/distance answers diverge from hopdb-query" >&2; exit 1; }

# The single-tenant answer the multi-tenant stage below is diffed against.
curl -fsS "$BASE/v1/distance?s=3&t=9" >"$tmp/versioned.json"

echo "== cross-checking POST /v1/batch"
awk 'BEGIN { printf("[") } { printf("%s[%s,%s]", NR == 1 ? "" : ",", $1, $2) } END { printf("]") }' "$tmp/pairs.txt" >"$tmp/batch.json"
printf '{"results":[%s]}\n' "$(paste -sd, "$tmp/expected.jsonl")" >"$tmp/expected_batch.json"
curl -fsS -X POST --data-binary @"$tmp/batch.json" "$BASE/v1/batch" >"$tmp/served_batch.json"
diff -u "$tmp/expected_batch.json" "$tmp/served_batch.json" || { echo "/v1/batch answers diverge from hopdb-query" >&2; exit 1; }

echo "== checking /v1/stats and oversized-batch rejection"
curl -fsS "$BASE/v1/stats" >"$tmp/stats.json"
grep -q '"backend":"heap"' "$tmp/stats.json" || { echo "/v1/stats missing backend kind" >&2; exit 1; }
grep -q '"kernel":"compact"' "$tmp/stats.json" || { echo "/v1/stats shows the fast kernel disengaged: $(cat "$tmp/stats.json")" >&2; exit 1; }
code=$(awk 'BEGIN { printf("["); for (i = 0; i < 10001; i++) printf("%s[1,2]", i ? "," : ""); printf("]") }' \
  | curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- "$BASE/v1/batch")
[ "$code" = "413" ] || { echo "oversized batch returned $code, want 413" >&2; exit 1; }

echo "== graceful shutdown"
kill -TERM "$pid"
wait "$pid"
pid=""

echo "== serving the same index file straight from disk (-disk)"
"$tmp/bin/hopdb-serve" -disk "$tmp/g.idx" -disk-cache 512 -addr "127.0.0.1:$PORT" &
pid=$!
wait_healthy
curl -fsS "$BASE/v1/stats" | grep -q '"backend":"disk"' || { echo "disk /v1/stats missing backend kind" >&2; exit 1; }
while read -r s t; do
  curl -fsS "$BASE/v1/distance?s=$s&t=$t"
done <"$tmp/pairs.txt" >"$tmp/served_disk.jsonl"
diff -u "$tmp/expected.jsonl" "$tmp/served_disk.jsonl" || { echo "-disk answers diverge from hopdb-query" >&2; exit 1; }
kill -TERM "$pid"
wait "$pid"
pid=""

echo "== multi-tenant: two datasets, principal auth, hot attach"
"$tmp/bin/hopdb-gen" -model glp -n 200 -density 3 -seed 11 -o "$tmp/b.txt"
"$tmp/bin/hopdb-build" -in "$tmp/b.txt" -o "$tmp/b.idx"
cat >"$tmp/tokens.json" <<'EOF'
{"principals": [
  {"token": "t-alice", "name": "alice", "scopes": ["read"], "datasets": ["wiki"]},
  {"token": "t-ratey", "name": "ratey", "scopes": ["read"], "rate_qps": 1, "burst": 1},
  {"token": "t-ops", "name": "ops", "scopes": ["read", "write", "admin"]}
]}
EOF
"$tmp/bin/hopdb-serve" -dataset "wiki=$tmp/g.idx" -dataset "roads=$tmp/b.idx" \
  -token-file "$tmp/tokens.json" -addr "127.0.0.1:$PORT" &
pid=$!
wait_healthy

echo "== per-dataset routing answers from the right index"
curl -fsS -H "Authorization: Bearer t-alice" "$BASE/v1/wiki/distance?s=3&t=9" >"$tmp/mt_wiki.json"
diff -u "$tmp/versioned.json" "$tmp/mt_wiki.json" || { echo "/v1/wiki/distance diverges from the single-tenant answer" >&2; exit 1; }

echo "== cross-dataset token gets 403, full-scope token gets through"
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer t-alice" "$BASE/v1/roads/distance?s=1&t=2")
[ "$code" = "403" ] || { echo "alice on roads returned $code, want 403" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer t-ops" "$BASE/v1/roads/distance?s=1&t=2")
[ "$code" = "200" ] || { echo "ops on roads returned $code, want 200" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/wiki/distance?s=3&t=9")
[ "$code" = "401" ] || { echo "tokenless query returned $code, want 401" >&2; exit 1; }

echo "== breaching a principal's rate limit sheds with 429"
codes=$(for _ in 1 2 3; do
  curl -s -o /dev/null -w '%{http_code} ' -H "Authorization: Bearer t-ratey" "$BASE/v1/wiki/distance?s=3&t=9"
done)
case "$codes" in
  *429*) ;;
  *) echo "rate breach codes were '$codes', want a 429" >&2; exit 1 ;;
esac

echo "== hot-attaching a third dataset while serving"
code=$(curl -s -o "$tmp/attach.json" -w '%{http_code}' -X POST -H "Authorization: Bearer t-ops" \
  --data-binary "{\"path\":\"$tmp/g.idx\",\"disk\":true}" "$BASE/v1/admin/datasets/archive")
[ "$code" = "200" ] || { echo "hot attach returned $code: $(cat "$tmp/attach.json")" >&2; exit 1; }
curl -fsS -H "Authorization: Bearer t-ops" "$BASE/v1/archive/distance?s=3&t=9" >"$tmp/mt_archive.json"
diff -u "$tmp/versioned.json" "$tmp/mt_archive.json" || { echo "hot-attached dataset diverges" >&2; exit 1; }
curl -fsS -H "Authorization: Bearer t-ops" "$BASE/v1/admin/datasets" | grep -q '"archive"' \
  || { echo "dataset listing missing the hot-attached dataset" >&2; exit 1; }

echo "== per-dataset metrics series"
curl -fsS "$BASE/v1/metrics" >"$tmp/mt_metrics.txt"
for ds in wiki roads archive; do
  grep -q "hopdb_dataset_queries_total{dataset=\"$ds\"}" "$tmp/mt_metrics.txt" \
    || { echo "/v1/metrics missing the $ds series" >&2; exit 1; }
done

echo "== detaching the hot dataset drains and 404s"
code=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE -H "Authorization: Bearer t-ops" "$BASE/v1/admin/datasets/archive")
[ "$code" = "200" ] || { echo "detach returned $code, want 200" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer t-ops" "$BASE/v1/archive/distance?s=3&t=9")
[ "$code" = "404" ] || { echo "detached dataset returned $code, want 404" >&2; exit 1; }
kill -TERM "$pid"
wait "$pid"
pid=""

echo "== cluster: primary + 2 replicas behind hopdb-router"
TOKEN=smoke-secret
P0=$((PORT+1)); P1=$((PORT+2)); P2=$((PORT+3)); PR=$((PORT+4))
PRIMARY="http://127.0.0.1:$P0"
ROUTER="http://127.0.0.1:$PR"
"$tmp/bin/hopdb-serve" -idx "$tmp/g.idx" -graph "$tmp/g.txt" -updates \
  -admin-token "$TOKEN" -addr "127.0.0.1:$P0" &
primary_pid=$!; pids="$pids $primary_pid"
wait_healthy_at "$PRIMARY" "$primary_pid"
replica_pids=()
for p in "$P1" "$P2"; do
  "$tmp/bin/hopdb-serve" -idx "$tmp/g.idx" -graph "$tmp/g.txt" -updates \
    -replica-of "$PRIMARY" -replica-token "$TOKEN" -replica-interval 100ms \
    -addr "127.0.0.1:$p" &
  rp=$!; pids="$pids $rp"; replica_pids+=("$rp")
  wait_healthy_at "http://127.0.0.1:$p" "$rp"
done
"$tmp/bin/hopdb-router" -replicas "$PRIMARY,http://127.0.0.1:$P1,http://127.0.0.1:$P2" \
  -primary "$PRIMARY" -hedge 50ms -addr "127.0.0.1:$PR" &
router_pid=$!; pids="$pids $router_pid"
wait_healthy_at "$ROUTER" "$router_pid"

echo "== applying an edge delete at the primary through the router's admin proxy"
# Delete the graph's first edge: guaranteed effective, so it gets seq 1.
read -r EU EV < <(awk '!/^[#%]/ { print $1, $2; exit }' "$tmp/g.txt")
code=$(curl -s -o "$tmp/update.json" -w '%{http_code}' -X POST \
  -H "Authorization: Bearer $TOKEN" -H "Content-Type: application/json" \
  --data-binary "[{\"op\":\"delete\",\"u\":$EU,\"v\":$EV}]" "$ROUTER/v1/admin/edges")
[ "$code" = "200" ] || { echo "admin delete via router returned $code: $(cat "$tmp/update.json")" >&2; exit 1; }
grep -q '"seq":1' "$tmp/update.json" || { echo "update response missing seq 1: $(cat "$tmp/update.json")" >&2; exit 1; }
# An updatable index is the heap index plus the writer: /v1/stats names
# the heap backend and adds the updates section.
curl -fsS "$PRIMARY/v1/stats" >"$tmp/primary_stats.json"
grep -q '"backend":"heap"' "$tmp/primary_stats.json" || { echo "updatable primary /v1/stats does not report the heap backend: $(cat "$tmp/primary_stats.json")" >&2; exit 1; }
grep -q '"updates":{' "$tmp/primary_stats.json" || { echo "updatable primary /v1/stats lacks the updates section: $(cat "$tmp/primary_stats.json")" >&2; exit 1; }

echo "== waiting for both replicas to reach seq 1"
for p in "$P1" "$P2"; do
  ok=""
  for _ in $(seq 1 50); do
    if curl -fsS "http://127.0.0.1:$p/v1/stats" | grep -q '"seq":1'; then ok=1; break; fi
    sleep 0.2
  done
  [ -n "$ok" ] || { echo "replica on port $p never reached seq 1" >&2; exit 1; }
done

echo "== diffing router answers (read-your-writes) against hopdb-query on the patched index"
printf -- "- %s %s\n" "$EU" "$EV" >"$tmp/delta.txt"
"$tmp/bin/hopdb-update" -idx "$tmp/g.idx" -graph "$tmp/g.txt" -delta "$tmp/delta.txt" -o "$tmp/g2.idx"
"$tmp/bin/hopdb-query" -idx "$tmp/g2.idx" -q "$tmp/pairs.txt" >"$tmp/cli2.txt" || [ $? -eq 1 ]
awk '{
  if ($3 == "unreachable") printf("{\"s\":%s,\"t\":%s,\"reachable\":false}\n", $1, $2);
  else printf("{\"s\":%s,\"t\":%s,\"distance\":%s,\"reachable\":true}\n", $1, $2, $3);
}' "$tmp/cli2.txt" >"$tmp/expected2.jsonl"
while read -r s t; do
  curl -fsS -H "X-Hopdb-Min-Seq: 1" "$ROUTER/v1/distance?s=$s&t=$t"
done <"$tmp/pairs.txt" >"$tmp/served_router.jsonl"
diff -u "$tmp/expected2.jsonl" "$tmp/served_router.jsonl" || { echo "router answers diverge from the patched index" >&2; exit 1; }

echo "== killing one replica mid-serving; the router must keep answering"
kill -9 "${replica_pids[0]}"
while read -r s t; do
  curl -fsS -H "X-Hopdb-Min-Seq: 1" "$ROUTER/v1/distance?s=$s&t=$t"
done <"$tmp/pairs.txt" >"$tmp/served_router_degraded.jsonl"
diff -u "$tmp/expected2.jsonl" "$tmp/served_router_degraded.jsonl" || { echo "router answers changed after the replica kill" >&2; exit 1; }

echo "== metrics expositions"
curl -fsS "$ROUTER/v1/metrics" | grep -q '^hopdb_router_up 1' || { echo "router /v1/metrics missing hopdb_router_up" >&2; exit 1; }
curl -fsS "$PRIMARY/v1/metrics" | grep -q '^hopdb_queries_total ' || { echo "primary /v1/metrics missing hopdb_queries_total" >&2; exit 1; }

echo "== shards: cutting the index into 4 rank shards plus a hub tier"
"$tmp/bin/hopdb-build" -in "$tmp/g.txt" -shards 4 -shard-dir "$tmp/shards"
for f in hub.sidx leaf0.sidx leaf1.sidx leaf2.sidx leaf3.sidx shard.json; do
  [ -f "$tmp/shards/$f" ] || { echo "shard build did not write $f" >&2; exit 1; }
done
# A leaf is a range image: opening it as a whole index must fail by name
# instead of answering Infinity for every pair it does not own.
if "$tmp/bin/hopdb-query" -idx "$tmp/shards/leaf0.sidx" -q "$tmp/pairs.txt" >/dev/null 2>"$tmp/leafq.err"; then
  echo "hopdb-query accepted a shard file as a whole index" >&2; exit 1
fi
grep -q 'hopdb-serve -shard' "$tmp/leafq.err" || { echo "hopdb-query did not name the shard opener: $(cat "$tmp/leafq.err")" >&2; exit 1; }

echo "== serving the leaves (leaf0 twice) behind a scatter-gather router"
SPR=$((PORT+10))
SROUTER="http://127.0.0.1:$SPR"
shard_urls=""
shard_replica_pid=""
spn=0
for i in 0 1 2 3 0; do
  sp=$((PORT+5+spn)); spn=$((spn+1))   # ports PORT+5..PORT+9
  "$tmp/bin/hopdb-serve" -shard "$tmp/shards/leaf$i.sidx" -shard-map "$tmp/shards/shard.json" \
    -addr "127.0.0.1:$sp" &
  sp_pid=$!; pids="$pids $sp_pid"
  shard_replica_pid=$sp_pid   # ends up holding the last server: leaf0's extra replica
  wait_healthy_at "http://127.0.0.1:$sp" "$sp_pid"
  shard_urls="$shard_urls${shard_urls:+,}http://127.0.0.1:$sp"
done
"$tmp/bin/hopdb-router" -replicas "$shard_urls" -shard-map "$tmp/shards/shard.json" \
  -addr "127.0.0.1:$SPR" &
srouter_pid=$!; pids="$pids $srouter_pid"
wait_healthy_at "$SROUTER" "$srouter_pid"

echo "== diffing sharded answers byte-for-byte against hopdb-query"
while read -r s t; do
  curl -fsS "$SROUTER/v1/distance?s=$s&t=$t"
done <"$tmp/pairs.txt" >"$tmp/served_sharded.jsonl"
diff -u "$tmp/expected.jsonl" "$tmp/served_sharded.jsonl" || { echo "sharded answers diverge from hopdb-query" >&2; exit 1; }
curl -fsS -X POST --data-binary @"$tmp/batch.json" "$SROUTER/v1/batch" >"$tmp/served_sharded_batch.json"
diff -u "$tmp/expected_batch.json" "$tmp/served_sharded_batch.json" || { echo "sharded batch diverges from hopdb-query" >&2; exit 1; }

echo "== per-leaf resident bytes stay within 1/N of the index plus the hub tier"
hub_entries=$(grep -o '"hub_entries": *[0-9]*' "$tmp/shards/shard.json" | grep -o '[0-9]*$')
total_entries=$(grep -o '"entries": *[0-9]*' "$tmp/shards/shard.json" | grep -o '[0-9]*$' \
  | awk -v hub="$hub_entries" '{ s += $1 } END { print s + hub }')
bound=$(awk -v t="$total_entries" -v h="$hub_entries" 'BEGIN { print int(t * 8 / 4) + h * 8 }')
for u in $(echo "$shard_urls" | tr ',' ' '); do
  size=$(curl -fsS "$u/v1/stats" | grep -o '"size_bytes":[0-9]*' | head -1 | cut -d: -f2)
  [ "$size" -le "$bound" ] || { echo "leaf at $u holds $size label bytes, bound is $bound" >&2; exit 1; }
done
curl -fsS "$SROUTER/v1/stats" >"$tmp/sstats.json"
grep -q "\"entries\":$total_entries" "$tmp/sstats.json" \
  || { echo "router stats do not sum shard entries to $total_entries: $(cat "$tmp/sstats.json")" >&2; exit 1; }
rf=$(grep -o '"row_fetches":[0-9]*' "$tmp/sstats.json" | cut -d: -f2)
[ "${rf:-0}" -gt 0 ] || { echo "router reports no row fetches after a scatter-gather storm" >&2; exit 1; }

echo "== killing leaf0's extra replica mid-storm; answers must not change"
kill -9 "$shard_replica_pid"
while read -r s t; do
  curl -fsS "$SROUTER/v1/distance?s=$s&t=$t"
done <"$tmp/pairs.txt" >"$tmp/served_sharded_degraded.jsonl"
diff -u "$tmp/expected.jsonl" "$tmp/served_sharded_degraded.jsonl" || { echo "sharded answers changed after the replica kill" >&2; exit 1; }

echo "smoke OK"
