package portal

import (
	"html/template"
	"net/http"
)

// indexTemplate is the minimal HTML front page: login form, file browser,
// submit form and a job monitor that follows the job's output over the SSE
// watch API (an EventSource on /api/jobs/{id}/events) — the "intuitive
// navigation" shell over the JSON API. It is deliberately plain HTML +
// vanilla JS so the portal works from any browser in a classroom.
var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>UHD Cluster Computing Portal</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 60em; }
fieldset { margin-bottom: 1em; }
pre { background: #f4f4f4; padding: 1em; min-height: 6em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 0.25em 0.75em; }
</style>
</head>
<body>
<h1>Cluster Computing Portal</h1>
<p>{{.Motto}}</p>

<fieldset id="login">
<legend>Sign in</legend>
<input id="user" placeholder="username">
<input id="pass" type="password" placeholder="password">
<button onclick="login()">Login</button>
<button onclick="register()">Register</button>
<span id="who"></span>
</fieldset>

<fieldset>
<legend>Files</legend>
<input id="path" value="/">
<button onclick="listFiles()">Browse</button>
<input id="upname" placeholder="/prog.mc">
<button onclick="upload()">Upload editor text</button>
<table id="files"></table>
<textarea id="editor" rows="12" cols="80" placeholder="source code"></textarea>
</fieldset>

<fieldset>
<legend>Run on the cluster</legend>
<input id="src" placeholder="/prog.mc">
<input id="ranks" type="number" value="1" min="1" max="64">
<button onclick="submitJob()">Compile &amp; Run</button>
<span id="jobid"></span>
<pre id="output"></pre>
<input id="stdin" placeholder="program input">
<button onclick="feed()">Send input</button>
</fieldset>

<script>
async function api(method, url, body) {
  const opts = {method: method, headers: {'Content-Type': 'application/json'}};
  if (body !== undefined) opts.body = JSON.stringify(body);
  const res = await fetch(url, opts);
  return res.json();
}
async function login() {
  const r = await api('POST', '/api/login', {user: user.value, password: pass.value});
  who.textContent = r.error ? r.error : 'signed in as ' + r.user;
}
async function register() {
  const r = await api('POST', '/api/register', {user: user.value, password: pass.value});
  who.textContent = r.error ? r.error : 'registered ' + r.user + ' — now log in';
}
async function listFiles() {
  const r = await fetch('/api/files?path=' + encodeURIComponent(path.value));
  const items = await r.json();
  files.innerHTML = '<tr><th>name</th><th>size</th></tr>';
  (items || []).forEach(f => {
    files.innerHTML += '<tr><td>' + f.path + (f.dir ? '/' : '') + '</td><td>' + f.size + '</td></tr>';
  });
}
async function upload() {
  await fetch('/api/files/content?path=' + encodeURIComponent(upname.value),
              {method: 'PUT', body: editor.value});
  listFiles();
}
let currentJob = null, events = null;
async function submitJob() {
  const r = await api('POST', '/api/jobs', {source_path: src.value, ranks: parseInt(ranks.value)});
  if (r.error) { output.textContent = r.error; return; }
  currentJob = r.id; output.textContent = '';
  jobid.textContent = r.id;
  watch();
}
function watch() {
  if (events) events.close();
  events = new EventSource('/api/jobs/' + currentJob + '/events');
  events.addEventListener('output', e => { output.textContent += JSON.parse(e.data).data; });
  events.addEventListener('done', e => {
    output.textContent += '\n[' + JSON.parse(e.data).state + ']';
    events.close(); // the job is over; do not let the browser reconnect
  });
}
async function feed() {
  if (!currentJob) return;
  await api('POST', '/api/jobs/' + currentJob + '/input', {data: stdin.value + '\n'});
  stdin.value = '';
}
</script>
</body>
</html>
`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	indexTemplate.Execute(w, map[string]string{
		"Motto": "Remote compilation, execution and job scheduling for the teaching cluster.",
	})
}
