package serve

import "net/http"

// handleDash serves the live fleet dashboard: one self-contained HTML
// page (no external assets, safe behind an air gap) fed by the
// /debug/dash/events SSE stream and the /v1/runs history endpoint.
func (s *Server) handleDash(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashHTML))
}

// handleDashEvents streams the server-wide fleet feed as SSE. Unlike
// the per-job stream, it never ends: it replays the retained feed from
// Last-Event-ID (or the oldest retained event) and then follows live
// appends until the client disconnects.
func (s *Server) handleDashEvents(w http.ResponseWriter, r *http.Request) {
	streamEvents(w, r, "fleet stream", func(from int) ([]Event, <-chan struct{}, error) {
		events, next := s.FleetEvents(from)
		return events, next, nil
	})
}

// dashHTML is the whole dashboard. Design notes: single-series
// sparkline (no legend — the title names it), text wears ink tokens
// only, stripe heat uses a sequential blue ramp, status is icon+label
// (never color alone), dark mode is its own validated palette selected
// via prefers-color-scheme, numbers use tabular figures.
const dashHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>minvn fleet</title>
<style>
:root {
  --surface: #fcfcfb; --panel: #f4f3f0;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --series: #2a78d6;
  --good: #0ca30c; --crit: #d03b3b;
  --seq1:#cde2fb; --seq2:#a8ccf6; --seq3:#7db2ef; --seq4:#549ae8;
  --seq5:#2a78d6; --seq6:#1b5cab; --seq7:#0d366b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #232322;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --series: #3987e5;
  }
}
* { box-sizing: border-box; margin: 0; }
body {
  background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif; padding: 20px 24px;
}
h1 { font-size: 17px; font-weight: 600; }
h2 { font-size: 12px; font-weight: 600; color: var(--ink-2);
     text-transform: uppercase; letter-spacing: .05em; margin-bottom: 10px; }
header { display: flex; align-items: baseline; gap: 14px; margin-bottom: 18px; }
#conn { font-size: 12px; color: var(--ink-2); }
#conn .ok { color: var(--good); } #conn .bad { color: var(--crit); }
.grid { display: grid; gap: 16px; grid-template-columns: repeat(auto-fit, minmax(320px, 1fr)); }
.card { background: var(--panel); border: 1px solid var(--grid);
        border-radius: 8px; padding: 14px 16px; }
.num { font-variant-numeric: tabular-nums; }
.hero { display: flex; gap: 28px; margin-bottom: 8px; }
.hero .v { font-size: 26px; font-weight: 650; }
.hero .k { font-size: 11px; color: var(--ink-3); text-transform: uppercase; letter-spacing: .05em; }
svg text { fill: var(--ink-3); font-size: 10px; }
.bars { display: grid; gap: 6px; }
.bar-row { display: grid; grid-template-columns: 44px 1fr 52px; gap: 8px; align-items: center; }
.bar-row .lbl { color: var(--ink-2); font-size: 12px; }
.bar-track { background: var(--surface); border-radius: 4px; height: 14px; overflow: hidden; }
.bar-fill { background: var(--series); height: 100%; border-radius: 0 4px 4px 0; min-width: 2px; }
.bar-row .val { color: var(--ink-2); font-size: 12px; text-align: right; }
.stripes { display: grid; grid-template-columns: repeat(32, 1fr); gap: 2px; margin: 4px 0 8px; }
.stripe { height: 14px; border-radius: 2px; background: var(--surface); }
.kv { color: var(--ink-2); font-size: 12px; }
table { width: 100%; border-collapse: collapse; font-size: 12.5px; }
th { text-align: left; color: var(--ink-3); font-weight: 500; font-size: 11px;
     text-transform: uppercase; letter-spacing: .04em; padding: 4px 8px 6px 0;
     border-bottom: 1px solid var(--grid); }
td { padding: 5px 8px 5px 0; border-bottom: 1px solid var(--grid); color: var(--ink-2); }
td.num, th.num { text-align: right; }
td .id { font-family: ui-monospace, monospace; font-size: 11.5px; }
.ok-cell { color: var(--good); } .bad-cell { color: var(--crit); }
.empty { color: var(--ink-3); font-size: 12.5px; padding: 10px 0; }
</style>
</head>
<body>
<header>
  <h1>minvn fleet</h1>
  <span id="conn"><span class="bad">&#9650;</span> connecting&#8230;</span>
</header>

<div class="grid">
  <div class="card" style="grid-column: 1 / -1;">
    <h2>Throughput &#8212; states/s (live)</h2>
    <div class="hero">
      <div><div class="v num" id="sps">&#8212;</div><div class="k">states/s</div></div>
      <div><div class="v num" id="states">&#8212;</div><div class="k">states stored</div></div>
      <div><div class="v num" id="depth">&#8212;</div><div class="k">frontier depth</div></div>
      <div><div class="v num" id="active">0</div><div class="k">jobs running</div></div>
    </div>
    <svg id="spark" width="100%" height="64" viewBox="0 0 600 64" preserveAspectRatio="none"></svg>
  </div>

  <div class="card">
    <h2>Per-VN queue high water</h2>
    <div class="bars" id="vnbars"><div class="empty">Waiting for a verify job with occupancy tracking&#8230;</div></div>
  </div>

  <div class="card">
    <h2>Dedup-stripe balance</h2>
    <div class="stripes" id="stripes"></div>
    <div class="kv num" id="skew">No health report yet.</div>
  </div>

  <div class="card" style="grid-column: 1 / -1;">
    <h2>Recent runs</h2>
    <div id="runs"><div class="empty">No ledger configured or no runs recorded yet.</div></div>
  </div>
</div>

<script>
"use strict";
var spsHist = [];
var SPARK_N = 120;
function fmt(n) {
  if (n === null || n === undefined) return "—";
  if (n >= 1e6) return (n / 1e6).toFixed(2) + "M";
  if (n >= 1e4) return (n / 1e3).toFixed(1) + "k";
  return Math.round(n).toLocaleString();
}
function setText(id, v) { document.getElementById(id).textContent = v; }

function drawSpark() {
  var svg = document.getElementById("spark");
  if (spsHist.length < 2) { svg.innerHTML = ""; return; }
  var max = Math.max.apply(null, spsHist) || 1;
  var w = 600, h = 64, pad = 4;
  var pts = [];
  for (var i = 0; i < spsHist.length; i++) {
    var x = pad + (w - 2 * pad) * i / (SPARK_N - 1);
    var y = h - pad - (h - 2 * pad) * (spsHist[i] / max);
    pts.push(x.toFixed(1) + "," + y.toFixed(1));
  }
  var grid = "";
  for (var g = 1; g <= 2; g++) {
    var gy = (h * g / 3).toFixed(1);
    grid += '<line x1="0" y1="' + gy + '" x2="' + w + '" y2="' + gy +
            '" stroke="var(--grid)" stroke-width="1"/>';
  }
  svg.innerHTML = grid +
    '<polyline fill="none" stroke="var(--series)" stroke-width="2" ' +
    'stroke-linejoin="round" stroke-linecap="round" points="' + pts.join(" ") + '"/>';
}

function drawVN(occ) {
  if (!occ || !occ.per_vn) return;
  var rows = occ.per_vn;
  var max = 1;
  for (var i = 0; i < rows.length; i++) max = Math.max(max, rows[i].global_high_water);
  var html = "";
  for (var j = 0; j < rows.length; j++) {
    var r = rows[j];
    var pct = Math.max(2, 100 * r.global_high_water / max);
    html += '<div class="bar-row"><span class="lbl">vn' + r.vn + '</span>' +
      '<div class="bar-track"><div class="bar-fill" style="width:' + pct.toFixed(1) + '%"></div></div>' +
      '<span class="val num">' + fmt(r.global_high_water) + '</span></div>';
  }
  document.getElementById("vnbars").innerHTML = html;
}

var SEQ = ["--seq1","--seq2","--seq3","--seq4","--seq5","--seq6","--seq7"];
function drawHealth(hr) {
  if (!hr || !hr.stripe_occupancy) return;
  var occ = hr.stripe_occupancy;
  var max = 1;
  for (var i = 0; i < occ.length; i++) max = Math.max(max, occ[i]);
  var html = "";
  for (var j = 0; j < occ.length; j++) {
    var step = Math.min(6, Math.floor(7 * occ[j] / (max + 1)));
    html += '<div class="stripe" style="background:var(' + SEQ[step] + ')" title="stripe ' +
            j + ": " + occ[j] + '"></div>';
  }
  document.getElementById("stripes").innerHTML = html;
  var cv = (hr.occ_cv !== undefined) ? hr.occ_cv.toFixed(3) : "?";
  setText("skew", "occupancy CV " + cv + " · min " + fmt(hr.occ_min) +
    " · max " + fmt(hr.occ_max) + " · " + occ.length + " stripes");
}

function onSnapshot(snap) {
  if (!snap) return;
  setText("sps", fmt(snap.states_per_sec));
  setText("states", fmt(snap.states));
  setText("depth", fmt(snap.max_depth));
  spsHist.push(snap.states_per_sec || 0);
  if (spsHist.length > SPARK_N) spsHist.shift();
  drawSpark();
  if (snap.occupancy) drawVN(snap.occupancy);
  if (snap.health) drawHealth(snap.health);
}

var active = {};
function setActive(id, on) {
  if (on) active[id] = true; else delete active[id];
  setText("active", String(Object.keys(active).length));
}

function loadRuns() {
  fetch("/v1/runs?limit=12").then(function (r) {
    if (!r.ok) throw new Error("no ledger");
    return r.json();
  }).then(function (page) {
    if (!page.runs || !page.runs.length) return;
    var html = '<table><tr><th>id</th><th>tool</th><th>kind</th><th>protocol</th>' +
      '<th>outcome</th><th class="num">states</th><th class="num">states/s</th></tr>';
    for (var i = 0; i < page.runs.length; i++) {
      var r = page.runs[i];
      var cls = (r.outcome === "failed" || r.outcome === "canceled") ? "bad-cell" : "ok-cell";
      var mark = (cls === "ok-cell") ? "● " : "▲ ";
      html += '<tr><td><span class="id">' + r.id.slice(0, 12) + "</span></td><td>" +
        (r.tool || "") + "</td><td>" + (r.kind || "") + "</td><td>" + (r.protocol || "") +
        '</td><td class="' + cls + '">' + mark + (r.outcome || "?") +
        '</td><td class="num">' + fmt(r.states) + '</td><td class="num">' +
        fmt(r.states_per_sec) + "</td></tr>";
    }
    document.getElementById("runs").innerHTML = html + "</table>";
  }).catch(function () { /* ledger absent: keep the empty-state note */ });
}

var es = new EventSource("/debug/dash/events");
es.onopen = function () {
  document.getElementById("conn").innerHTML =
    '<span class="ok">&#9679;</span> live';
};
es.onerror = function () {
  document.getElementById("conn").innerHTML =
    '<span class="bad">&#9650;</span> reconnecting&#8230;';
};
es.addEventListener("started", function (e) {
  var ev = JSON.parse(e.data);
  setActive(ev.job_id, true);
});
es.addEventListener("snapshot", function (e) {
  var ev = JSON.parse(e.data);
  onSnapshot(ev.snapshot);
});
es.addEventListener("done", function (e) {
  var ev = JSON.parse(e.data);
  setActive(ev.job_id, false);
  loadRuns();
});
loadRuns();
</script>
</body>
</html>
`
