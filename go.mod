module rafiki

go 1.24
