//! The self-contained live dashboard served at `GET /dashboard`.
//!
//! One static HTML page, no external assets, no build step: the markup,
//! styling and script below are embedded in the daemon binary and talk
//! only to the daemon's own JSON/SSE endpoints. The page
//!
//! * picks a job from `?job=<id>` (falling back to the newest job in
//!   `GET /jobs`),
//! * tails `GET /jobs/:id/stream` with `EventSource` — the browser
//!   resumes via `Last-Event-ID` automatically after a daemon restart —
//!   and counts outcomes per event kind as they arrive,
//! * polls `GET /jobs/:id/analytics` for the server-side
//!   [`CriticalityAggregator`](radcrit_obs::CriticalityAggregator) fold:
//!   converging FIT with its Poisson 95 % CI, outcome bars, and the
//!   spatial-class breakdown,
//! * polls `GET /alerts` for the health-rules panel (firing rules in
//!   red with their message, quiet rules collapsed to one line),
//! * polls `GET /metrics` for the batching-efficiency row (bucket
//!   restores vs forks, deferred fork starts, dead-strike and
//!   contained-fault early exits, the latter with flips pending) and
//!   `GET /profile` for the daemon-wide hot-phases panel (top self-time
//!   phases of the merged hierarchical profile),
//! * stops cleanly when the stream sends its `end` frame and the fold
//!   reports `finished`.

/// The dashboard page body (UTF-8 HTML).
pub const DASHBOARD_HTML: &str = r#"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>radcrit live analytics</title>
<style>
  body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
         background: #10141a; color: #d6dde6; }
  h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.6rem; }
  code, .mono { font-family: ui-monospace, monospace; }
  .muted { color: #7b8794; }
  .bar { display: flex; height: 1.4rem; border-radius: 4px; overflow: hidden;
         background: #1b222c; margin: .4rem 0 .2rem; }
  .bar div { height: 100%; transition: width .3s; }
  .masked { background: #3e5c76; } .sdc { background: #c0392b; }
  .crash { background: #d68910; } .hang { background: #7d3c98; }
  .legend span { margin-right: 1.2rem; }
  .dot { display: inline-block; width: .7rem; height: .7rem; border-radius: 2px;
         margin-right: .35rem; vertical-align: -1px; }
  table { border-collapse: collapse; margin-top: .5rem; }
  td, th { padding: .15rem .9rem .15rem 0; text-align: right; }
  th { color: #7b8794; font-weight: 500; }
  td:first-child, th:first-child { text-align: left; }
  #fit { font-size: 1.6rem; }
  .alert-firing { color: #e74c3c; }
  .alert-critical { font-weight: 600; }
  #log { height: 11rem; overflow-y: auto; background: #0b0e13; padding: .5rem;
         border-radius: 4px; font-size: 12px; white-space: pre; }
</style>
</head>
<body>
<h1>radcrit live analytics <span id="job" class="mono muted"></span></h1>
<p class="muted" id="state">connecting&hellip;</p>

<h2>FIT (arbitrary units)</h2>
<p><span id="fit" class="mono">&ndash;</span>
   <span id="ci" class="mono muted"></span></p>
<p class="muted">filtered (&gt;tolerance): <span id="fitf" class="mono">&ndash;</span></p>

<h2>Outcomes <span id="counts" class="mono muted"></span></h2>
<div class="bar" id="bars"></div>
<p class="legend muted">
  <span><i class="dot masked"></i>masked</span>
  <span><i class="dot sdc"></i>SDC</span>
  <span><i class="dot crash"></i>crash (DUE)</span>
  <span><i class="dot hang"></i>hang (DUE)</span>
</p>

<h2>Spatial classes (SDC)</h2>
<table><thead><tr><th>class</th><th>all</th><th>&gt;tolerance</th></tr></thead>
<tbody id="classes"></tbody></table>

<h2>Alerts</h2>
<p class="mono" id="alerts"><span class="muted">&ndash;</span></p>

<h2>Batching</h2>
<p class="mono muted" id="batching">&ndash;</p>

<h2>Hot phases <span class="muted">(self time, daemon-wide)</span></h2>
<table><thead><tr><th>phase</th><th>self</th><th>calls</th></tr></thead>
<tbody id="phases"></tbody></table>

<h2>Event tail</h2>
<div id="log" class="mono"></div>

<script>
"use strict";
const $ = id => document.getElementById(id);
const sci = v => Number(v).toExponential(3);
let job = new URLSearchParams(location.search).get("job");
let es = null, finished = false;

async function newestJob() {
  const r = await fetch("/jobs");
  const jobs = (await r.json()).jobs || [];
  return jobs.length ? jobs[jobs.length - 1].job : null;
}

function tail(line) {
  const log = $("log");
  log.textContent += line + "\n";
  while (log.textContent.length > 40000)
    log.textContent = log.textContent.slice(log.textContent.indexOf("\n") + 1);
  log.scrollTop = log.scrollHeight;
}

function render(a) {
  const total = a.masked + a.sdc + a.crash + a.hang || 1;
  $("bars").innerHTML = ["masked", "sdc", "crash", "hang"]
    .map(k => `<div class="${k}" style="width:${100 * a[k] / total}%"></div>`)
    .join("");
  $("counts").textContent =
    `masked ${a.masked} · sdc ${a.sdc} (crit ${a.critical_sdc}) · ` +
    `crash ${a.crash} · hang ${a.hang} · ${a.injections}/${a.declared_injections} folded`;
  $("fit").textContent = sci(a.fit_all_total);
  $("ci").textContent = `95% CI [${sci(a.fit_ci95[0])}, ${sci(a.fit_ci95[1])}]`;
  $("fitf").textContent = sci(a.fit_filtered_total);
  const classes = new Set([...Object.keys(a.fit_all), ...Object.keys(a.fit_filtered)]);
  $("classes").innerHTML = [...classes].map(c =>
    `<tr><td>${c}</td><td>${sci(a.fit_all[c] || 0)}</td>` +
    `<td>${sci(a.fit_filtered[c] || 0)}</td></tr>`).join("");
  if (a.finished && !finished) {
    finished = true;
    $("state").textContent =
      `finished: ${a.kernel} × ${a.input} on ${a.device}, ${a.injections} injections`;
  } else if (!finished) {
    $("state").textContent =
      `running: ${a.kernel} × ${a.input} on ${a.device} — ` +
      `${a.injections}/${a.declared_injections} injections folded`;
  }
}

// Prometheus text → {name: value} for the unlabeled series we chart.
function parseProm(text) {
  const vals = {};
  for (const line of text.split("\n")) {
    if (!line || line.startsWith('#')) continue;
    const sp = line.lastIndexOf(" ");
    if (sp > 0 && !line.includes("{")) vals[line.slice(0, sp)] = Number(line.slice(sp + 1));
  }
  return vals;
}

const us = ns => (ns / 1000).toLocaleString("en-US", {maximumFractionDigits: 0});

async function pollDaemon() {
  try {
    const m = parseProm(await (await fetch("/metrics")).text());
    const restores = m.radcrit_bucket_restores_total || 0;
    const forks = m.radcrit_bucket_forks_total || 0;
    const dead = m.radcrit_run_dead_strike_exits_total || 0;
    const contained = m.radcrit_run_contained_exits_total || 0;
    const flips = m.radcrit_run_flip_exits_total || 0;
    const deferred = m.radcrit_bucket_deferred_forks_total || 0;
    $("batching").textContent =
      `${restores} bucket restores · ${forks} forks ` +
      `(${restores ? (forks / restores).toFixed(1) : "–"} forks/restore, ` +
      `${deferred} started at their victim) · ` +
      `${dead} dead-strike early exits · ${contained} contained-fault exits ` +
      `(${flips} with flips pending)`;
  } catch (e) { /* daemon restarting */ }
  try {
    const a = await (await fetch("/alerts")).json();
    const rules = a.alerts || [];
    const firing = rules.filter(r => r.state === "firing");
    $("alerts").innerHTML = firing.length
      ? firing.map(r =>
          `<span class="alert-firing${r.severity === "critical" ? " alert-critical" : ""}">` +
          `${r.rule}: ${r.message}</span>`).join("<br>")
      : `<span class="muted">all ${rules.length} rules quiet</span>`;
  } catch (e) { /* daemon restarting */ }
  try {
    const p = await (await fetch("/profile")).json();
    $("phases").innerHTML = (p.hot || []).map(h =>
      `<tr><td>${h.phase}</td><td>${us(h.self_ns)} µs</td><td>${h.count}</td></tr>`
    ).join("") || `<tr><td class="muted" colspan="3">no profiles yet</td></tr>`;
  } catch (e) { /* daemon restarting */ }
  if (!finished) setTimeout(pollDaemon, 5000);
}

async function poll() {
  try {
    const r = await fetch(`/jobs/${job}/analytics`);
    if (r.ok) render(await r.json());
  } catch (e) { /* daemon restarting: EventSource will reconnect */ }
  if (!finished) setTimeout(poll, 2000);
}

async function main() {
  job = job || await newestJob();
  if (!job) { $("state").textContent = "no jobs yet — submit one, then reload"; return; }
  $("job").textContent = job;
  es = new EventSource(`/jobs/${job}/stream`);
  es.onmessage = ev => tail(`#${ev.lastEventId} ${ev.data}`);
  es.addEventListener("end", () => { es.close(); poll(); });
  poll();
  pollDaemon();
}
main();
</script>
</body>
</html>
"#;
