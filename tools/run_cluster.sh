#!/usr/bin/env bash
# Launches a multi-process hyperion cluster on loopback TCP, runs
# bio-catalog queries through the coordinator REPL, and proves the
# distributed cover is byte-identical to a single-process run over the
# same catalog.
#
#   tools/run_cluster.sh <path-to-hyperion_cli> [--kill-one] [--failover] [--write-path] [--rebalance]
#
# Startup handshake: storage nodes bind ephemeral ports (port 0 in the
# seed config) and publish them via --port-file; once all files exist
# the script rewrites a resolved config and only then starts the
# coordinator — no listen-before-connect race, no fixed ports to
# collide on in CI.  A storage node that dies before publishing its
# port fails the script immediately, by name, with its log tail — a
# missing port file never hangs the drill until timeout.
#
# --kill-one (replication=1, two storage nodes) SIGKILLs the storage
# node owning shard 0 mid-session and asserts the next query fails
# *loudly*, naming that node — an unreplicated cluster must never
# return a silently partial cover.
#
# --failover (replication=2, three storage nodes) is the chaos drill:
# SIGKILL the *primary* owner of shard 0 mid-workload and assert the
# cluster keeps answering — zero failed queries, covers byte-identical
# to the single-process reference, the failover invisible except in the
# logs.
#
# --write-path (replication=2, three storage nodes, write_quorum 1,
# per-node write logs) is the durability drill: replicate a curator
# write, kill -9 one replica, replicate a second write while it is
# down, restart it, wait for anti-entropy to repair it to the latest
# write sequence, and assert the final cluster cover is byte-identical
# to a single-process run that applied the same write sequence — with
# zero failed queries and zero failed writes along the way.
#
# --rebalance (replication=2, three storage nodes + one joiner) is the
# live-topology drill: seed curator writes, start a fourth storage node
# that is in NOBODY's boot config, `join` it through the coordinator
# REPL, poll the `epoch` verb until the new ring epoch commits, and
# assert the handoff actually shipped write-log rows (the `handoffs`
# verb reports non-zero rows installed by the joiner).  Then `decommission` the
# original primary of shard 0, wait for the next epoch to commit
# without it, kill -9 the retired process, and demand the final cover
# is byte-identical to a single-process run that applied the same
# writes — zero failed queries across both epoch transitions.
set -euo pipefail

CLI=${1:?usage: run_cluster.sh <path-to-hyperion_cli> [--kill-one] [--failover] [--write-path] [--rebalance]}
shift || true
KILL_ONE=0
FAILOVER=0
WRITE_PATH=0
REBALANCE=0
for arg in "$@"; do
  [[ "$arg" == "--kill-one" ]] && KILL_ONE=1
  [[ "$arg" == "--failover" ]] && FAILOVER=1
  [[ "$arg" == "--write-path" ]] && WRITE_PATH=1
  [[ "$arg" == "--rebalance" ]] && REBALANCE=1
done
if (( KILL_ONE + FAILOVER + WRITE_PATH + REBALANCE > 1 )); then
  echo "run_cluster: --kill-one, --failover, --write-path and --rebalance are mutually exclusive" >&2
  exit 2
fi

ENTITIES=${ENTITIES:-200}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hyperion_cluster.XXXXXX")
# Every spawned node pid lands here the moment it exists, so the EXIT
# trap can kill -9 the whole fleet on ANY early exit (a fail(), a
# set -e abort, a signal) — no orphaned storage processes outliving a
# broken drill, no port files leaking into the next CI step.
NODE_PIDS=()
cleanup() {
  if ((${#NODE_PIDS[@]} > 0)); then
    kill -9 "${NODE_PIDS[@]}" 2>/dev/null || true
  fi
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "run_cluster: FAIL: $*" >&2
  for log in "$WORK"/*.log "$WORK"/coord.out; do
    [[ -f "$log" ]] && { echo "--- $log ---" >&2; tail -20 "$log" >&2; }
  done
  exit 1
}

# Waits (up to $3 seconds, default 20) for $2 to appear in file $1.
# When $4 names a node and $5 its pid, a dead process fails fast with a
# named diagnostic instead of burning the whole budget.
await() {
  local file=$1 pattern=$2 budget=${3:-20} node=${4:-} pid=${5:-} i
  for ((i = 0; i < budget * 10; ++i)); do
    grep -q "$pattern" "$file" 2>/dev/null && return 0
    if [[ -n "$pid" ]] && ! kill -0 "$pid" 2>/dev/null; then
      fail "node '$node' (pid $pid) died before '$pattern' appeared in $file"
    fi
    sleep 0.1
  done
  fail "timed out waiting for '$pattern' in $file"
}

# State polling through the coordinator REPL: re-issues verb $1 (e.g.
# `versions`, `epoch`) every 200ms until $2 appears in coord.out, up to
# $3 seconds (default 30).  $4/$5 optionally name a node/pid whose death
# fails the poll fast.  Drills use this instead of fixed sleeps — the
# wait ends the moment the cluster reaches the state, not after a guess.
poll_repl() {
  local cmd=$1 pattern=$2 budget=${3:-30} node=${4:-} pid=${5:-} i
  for ((i = 0; i < budget * 5; ++i)); do
    echo "$cmd" >&3
    sleep 0.2
    grep -q "$pattern" "$WORK/coord.out" 2>/dev/null && return 0
    if [[ -n "$pid" ]] && ! kill -0 "$pid" 2>/dev/null; then
      fail "node '$node' (pid $pid) died while polling '$cmd' for '$pattern'"
    fi
    kill -0 "$COORD" 2>/dev/null \
      || fail "coordinator died while polling '$cmd' for '$pattern'"
  done
  fail "timed out polling '$cmd' for '$pattern'"
}

# --- 1. storage nodes on ephemeral ports --------------------------------
SHARDS=2
if [[ "$FAILOVER" == 1 || "$WRITE_PATH" == 1 ]]; then
  REPLICATION=2
  STORES=(store1 store2 store3)
elif [[ "$REBALANCE" == 1 ]]; then
  # More shards than the other drills so the joining node lands a
  # non-trivial slice of the ring to pull (with 64 vnodes the 4-node
  # ring gives store4 six of sixteen shards — checked via `cluster
  # plan`, deterministic).
  SHARDS=16
  REPLICATION=2
  STORES=(store1 store2 store3)
else
  REPLICATION=1
  STORES=(store1 store2)
fi

conf_body() {
  cat <<EOF
shards $SHARDS
replication $REPLICATION
heartbeat_ms 100
suspect_ms 500
down_ms 1500
fetch_timeout_ms 5000
replica_timeout_ms 400
fetch_attempts 2
fetch_backoff_ms 50
EOF
  if [[ "$WRITE_PATH" == 1 ]]; then
    # quorum 1: the write issued while one replica is SIGKILLed (but not
    # yet marked down) must commit off the surviving replica alone;
    # anti-entropy owes the dead one its catch-up.
    cat <<EOF
write_quorum 1
write_timeout_ms 5000
write_attempts 3
write_backoff_ms 50
repair_interval_ms 200
EOF
  fi
  if [[ "$REBALANCE" == 1 ]]; then
    # A tight repair/handoff timer keeps the epoch transitions short.
    echo "repair_interval_ms 200"
  fi
  echo "node coord coordinator 127.0.0.1 0"
}

# Storage nodes in a write-path drill persist applied writes, so a
# restarted replica resumes from its pre-crash write log.
store_flags() {
  local node=$1
  if [[ "$WRITE_PATH" == 1 ]]; then
    echo "--log-dir $WORK/$node.wal"
  fi
}

{
  conf_body
  for node in "${STORES[@]}"; do
    echo "node $node storage 127.0.0.1 0"
  done
} > "$WORK/seed.conf"

declare -A STORE_PID
for node in "${STORES[@]}"; do
  # shellcheck disable=SC2046
  "$CLI" node --config "$WORK/seed.conf" --id "$node" \
    --entities "$ENTITIES" --port-file "$WORK/$node.port" \
    $(store_flags "$node") \
    > "$WORK/$node.log" 2>&1 &
  STORE_PID[$node]=$!
  NODE_PIDS+=($!)
done
for node in "${STORES[@]}"; do
  await "$WORK/$node.port" "[0-9]" 20 "$node" "${STORE_PID[$node]}"
done

# --- 2. resolved config + placement -------------------------------------
{
  conf_body
  for node in "${STORES[@]}"; do
    echo "node $node storage 127.0.0.1 $(cat "$WORK/$node.port")"
  done
} > "$WORK/resolved.conf"

"$CLI" cluster plan --config "$WORK/resolved.conf"
# Column 4 of "shard 0 -> <primary> [replicas...]" is the primary owner.
VICTIM=$("$CLI" cluster plan --config "$WORK/resolved.conf" \
  | awk '$1 == "shard" && $2 == "0" { print $4 }')
[[ -n "$VICTIM" ]] || fail "could not determine the primary owner of shard 0"

# --- 3. coordinator REPL over a fifo ------------------------------------
mkfifo "$WORK/repl"
"$CLI" node --config "$WORK/resolved.conf" --id coord \
  --entities "$ENTITIES" --port-file "$WORK/coord.port" < "$WORK/repl" \
  > "$WORK/coord.out" 2> "$WORK/coord.log" &
COORD=$!
NODE_PIDS+=($!)
exec 3> "$WORK/repl"

echo "waitalive 10000" >&3
await "$WORK/coord.out" "all alive" 20 coord "$COORD"

echo "query Hugo,SwissProt,MIM" >&3
await "$WORK/coord.out" "cover rows in" 20 coord "$COORD"
grep -q "^error" "$WORK/coord.out" && fail "healthy-cluster query errored"

echo "dump $WORK/cluster_cover.hmt Hugo,SwissProt,MIM" >&3
await "$WORK/coord.out" "written to" 20 coord "$COORD"

# --- 4. conformance: cluster cover == single-process cover --------------
"$CLI" query --entities "$ENTITIES" --path Hugo,SwissProt,MIM \
  --repeat 1 --dump "$WORK/sim_cover.hmt" > /dev/null 2>&1
cmp "$WORK/sim_cover.hmt" "$WORK/cluster_cover.hmt" \
  || fail "cluster cover differs from single-process cover"
echo "run_cluster: covers byte-identical ($(wc -c < "$WORK/sim_cover.hmt") bytes)"

# --- 5. optional: kill a storage node, demand a loud failure ------------
if [[ "$KILL_ONE" == 1 ]]; then
  echo "run_cluster: killing $VICTIM (owner of shard 0)"
  kill -9 "${STORE_PID[$VICTIM]}"
  wait "${STORE_PID[$VICTIM]}" 2>/dev/null || true
  # Evict fetched tables and use a fresh path so neither cache layer can
  # answer without touching the dead node.
  echo "evict" >&3
  await "$WORK/coord.out" "cache dropped" 20 coord "$COORD"
  echo "query Hugo,GDB,MIM" >&3
  await "$WORK/coord.out" "unreachable" 30 coord "$COORD"
  grep "storage node '$VICTIM' unreachable" "$WORK/coord.out" > /dev/null \
    || fail "failure did not name the dead node $VICTIM"
  echo "run_cluster: dead node loudly attributed: $(grep -o "storage node '$VICTIM' unreachable[^\"]*" "$WORK/coord.out" | head -1)"
fi

# --- 6. optional: replication=2 chaos drill — kill -9 the primary, ------
# ---    demand zero failed queries and byte-identical covers ------------
if [[ "$FAILOVER" == 1 ]]; then
  echo "run_cluster: kill -9 $VICTIM (primary of shard 0) mid-workload"
  kill -9 "${STORE_PID[$VICTIM]}"
  wait "${STORE_PID[$VICTIM]}" 2>/dev/null || true
  # Drop the assembled-table cache and run only paths the service has
  # never answered (its cover cache is per-path), so every query below
  # has to go back on the wire and fail over from the dead primary to a
  # live replica.
  echo "evict" >&3
  await "$WORK/coord.out" "cache dropped" 20 coord "$COORD"
  DRILL_PATHS=(
    Hugo,GDB,MIM
    Hugo,Locus,MIM
    Hugo,GDB,SwissProt,MIM
    Hugo,Locus,GDB,MIM
    Hugo,Locus,Unigene,SwissProt,MIM
  )
  for p in "${DRILL_PATHS[@]}"; do
    echo "query $p" >&3
  done
  # The REPL is sequential, so once the dump below has completed every
  # drill query above has answered too.
  echo "dump $WORK/failover_cover.hmt Hugo,Locus,GDB,SwissProt,MIM" >&3
  await "$WORK/coord.out" "failover_cover.hmt" 40 coord "$COORD"
  grep -q "^error" "$WORK/coord.out" \
    && fail "query failed during failover drill: $(grep -m1 '^error' "$WORK/coord.out")"
  ANSWERED=$(grep -c "cover rows in" "$WORK/coord.out")
  [[ "$ANSWERED" -ge 6 ]] \
    || fail "expected >= 6 answered queries, got $ANSWERED"
  "$CLI" query --entities "$ENTITIES" --path Hugo,Locus,GDB,SwissProt,MIM \
    --repeat 1 --dump "$WORK/sim_failover.hmt" > /dev/null 2>&1
  cmp "$WORK/sim_failover.hmt" "$WORK/failover_cover.hmt" \
    || fail "post-failover cover differs from single-process cover"
  echo "run_cluster: survived kill -9 of $VICTIM: $ANSWERED queries answered, 0 failed, covers byte-identical"
fi

# --- 7. optional: distributed write path + anti-entropy repair drill ----
if [[ "$WRITE_PATH" == 1 ]]; then
  # The query path Hugo,SwissProt,MIM composes m5 (Hugo->SwissProt) with
  # m11 (SwissProt->MIM); writing a linking row into each makes the new
  # pair visible in the cover, so the final byte-compare proves the
  # writes actually replicated.
  echo "run_cluster: write 1 (all replicas alive)"
  echo "write m5 drillhugo,drillswiss" >&3
  await "$WORK/coord.out" "write ok m5 seq 1" 20 coord "$COORD"

  echo "run_cluster: kill -9 $VICTIM (primary of shard 0), then write 2"
  kill -9 "${STORE_PID[$VICTIM]}"
  wait "${STORE_PID[$VICTIM]}" 2>/dev/null || true
  echo "write m11 drillswiss,drillmim" >&3
  await "$WORK/coord.out" "write ok m11 seq 2" 30 coord "$COORD"

  # Restart the victim: same node id, fresh ephemeral port (its old one
  # may linger in TIME_WAIT), same write log.  Its config must carry the
  # coordinator's RESOLVED port (the seed says 0): the survivors only
  # know the victim's dead old address, so the victim has to dial out
  # first — peers then learn its new address from those heartbeats, and
  # anti-entropy sees its shard versions behind and feeds it the writes
  # it slept through.
  {
    conf_body
    for node in "${STORES[@]}"; do
      if [[ "$node" == "$VICTIM" ]]; then
        echo "node $node storage 127.0.0.1 0"
      else
        echo "node $node storage 127.0.0.1 $(cat "$WORK/$node.port")"
      fi
    done
  } | sed "s/node coord coordinator 127.0.0.1 0/node coord coordinator 127.0.0.1 $(cat "$WORK/coord.port")/" \
    > "$WORK/restart.conf"
  # shellcheck disable=SC2046
  "$CLI" node --config "$WORK/restart.conf" --id "$VICTIM" \
    --entities "$ENTITIES" --port-file "$WORK/$VICTIM.port2" \
    $(store_flags "$VICTIM") \
    > "$WORK/$VICTIM.restart.log" 2>&1 &
  STORE_PID[$VICTIM]=$!
  NODE_PIDS+=($!)
  await "$WORK/$VICTIM.port2" "[0-9]" 20 "$VICTIM" "${STORE_PID[$VICTIM]}"

  echo "run_cluster: waiting for anti-entropy to repair $VICTIM to seq 2"
  poll_repl versions "^$VICTIM shards [0-9]*/[0-9]* min v2" 30 \
    "$VICTIM" "${STORE_PID[$VICTIM]}"

  # Final conformance: the cluster cover after (write, crash, write,
  # repair) must equal a single-process run that just applied both
  # writes — byte-identical, zero failed queries, zero failed writes.
  echo "evict" >&3
  await "$WORK/coord.out" "cache dropped" 20 coord "$COORD"
  echo "dump $WORK/write_cover.hmt Hugo,SwissProt,MIM" >&3
  await "$WORK/coord.out" "write_cover.hmt" 30 coord "$COORD"
  grep -q "^error" "$WORK/coord.out" \
    && fail "write-path drill produced an error: $(grep -m1 '^error' "$WORK/coord.out")"
  "$CLI" query --entities "$ENTITIES" --path Hugo,SwissProt,MIM \
    --write m5:drillhugo,drillswiss --write m11:drillswiss,drillmim \
    --repeat 1 --dump "$WORK/sim_write.hmt" > /dev/null 2>&1
  cmp "$WORK/sim_write.hmt" "$WORK/write_cover.hmt" \
    || fail "post-repair cover differs from single-process write replay"
  grep -q "drillmim" "$WORK/write_cover.hmt" \
    || fail "replicated writes never reached the cover"
  echo "run_cluster: write path survived kill -9 of $VICTIM: repaired to seq 2, covers byte-identical"
fi

# --- 8. optional: live rebalance drill — join a node mid-workload, ------
# ---    hand off its shards, then decommission the original primary -----
if [[ "$REBALANCE" == 1 ]]; then
  # Seed curator writes first: the handoff ships write-log state, so
  # non-zero installed rows below prove the joiner pulled real rows, not
  # just an empty ack.
  echo "run_cluster: seeding writes before the join"
  echo "write m5 drillhugo,drillswiss" >&3
  await "$WORK/coord.out" "write ok m5 seq 1" 20 coord "$COORD"
  echo "write m11 drillswiss,drillmim" >&3
  await "$WORK/coord.out" "write ok m11 seq 2" 20 coord "$COORD"

  # Start store4 — absent from every running node's boot config.  Its
  # own config carries the fleet's RESOLVED addresses (it must dial out
  # first; nobody heartbeats an unknown node) plus itself on port 0.
  {
    conf_body
    for node in "${STORES[@]}"; do
      echo "node $node storage 127.0.0.1 $(cat "$WORK/$node.port")"
    done
    echo "node store4 storage 127.0.0.1 0"
  } | sed "s/node coord coordinator 127.0.0.1 0/node coord coordinator 127.0.0.1 $(cat "$WORK/coord.port")/" \
    > "$WORK/join.conf"
  "$CLI" node --config "$WORK/join.conf" --id store4 \
    --entities "$ENTITIES" --port-file "$WORK/store4.port" \
    > "$WORK/store4.log" 2>&1 &
  STORE_PID[store4]=$!
  NODE_PIDS+=($!)
  await "$WORK/store4.port" "[0-9]" 20 store4 "${STORE_PID[store4]}"

  echo "run_cluster: joining store4 mid-workload"
  echo "join store4 127.0.0.1:$(cat "$WORK/store4.port")" >&3
  await "$WORK/coord.out" "join of 'store4' started" 20 coord "$COORD"
  # Queries keep flowing while the handoff runs — reads stay on the old
  # owners until the epoch commits, so none of these may fail.
  echo "query Hugo,GDB,MIM" >&3
  poll_repl epoch "epoch 2 (stable): .*store4" 30 store4 "${STORE_PID[store4]}"
  # The joiner's own handoff acks, not a metric: a -DHYPERION_METRICS=OFF
  # build compiles cluster.rebalance.rows_shipped out.
  poll_repl handoffs "^handoff store4 shard [0-9]* rows [1-9]" 20
  echo "run_cluster: store4 joined at epoch 2; handoff installed rows"

  echo "run_cluster: decommissioning $VICTIM"
  echo "decommission $VICTIM" >&3
  await "$WORK/coord.out" "decommission of '$VICTIM' started" 20 coord "$COORD"
  poll_repl epoch "epoch 3 (stable)" 30
  grep "epoch 3 (stable)" "$WORK/coord.out" | grep -q "$VICTIM" \
    && fail "decommissioned node $VICTIM still in the committed ring"
  # The retired node is out of the ring and roster; killing it must not
  # cost a single query.
  kill -9 "${STORE_PID[$VICTIM]}"
  wait "${STORE_PID[$VICTIM]}" 2>/dev/null || true

  echo "evict" >&3
  await "$WORK/coord.out" "cache dropped" 20 coord "$COORD"
  for p in Hugo,GDB,MIM Hugo,Locus,MIM Hugo,GDB,SwissProt,MIM; do
    echo "query $p" >&3
  done
  echo "dump $WORK/rebalance_cover.hmt Hugo,SwissProt,MIM" >&3
  await "$WORK/coord.out" "rebalance_cover.hmt" 40 coord "$COORD"
  grep -q "^error" "$WORK/coord.out" \
    && fail "query failed during rebalance drill: $(grep -m1 '^error' "$WORK/coord.out")"
  "$CLI" query --entities "$ENTITIES" --path Hugo,SwissProt,MIM \
    --write m5:drillhugo,drillswiss --write m11:drillswiss,drillmim \
    --repeat 1 --dump "$WORK/sim_rebalance.hmt" > /dev/null 2>&1
  cmp "$WORK/sim_rebalance.hmt" "$WORK/rebalance_cover.hmt" \
    || fail "post-rebalance cover differs from single-process write replay"
  grep -q "drillmim" "$WORK/rebalance_cover.hmt" \
    || fail "seeded writes missing from the post-rebalance cover"
  echo "run_cluster: rebalance drill survived join + decommission: covers byte-identical"
fi

echo "quit" >&3
exec 3>&-
wait "$COORD" || fail "coordinator exited non-zero"
echo "run_cluster: PASS"
